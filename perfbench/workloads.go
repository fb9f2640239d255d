package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"smtpsim/internal/core"
	"smtpsim/internal/machine"
	"smtpsim/internal/sim"
	"smtpsim/internal/workload"
)

// size selects the paper-size workloads or the tiny ones the benchmark's
// own tests run.
type size int

const (
	fullSize size = iota
	tinySize
)

// maxCycles is core's default per-run cycle budget.
const maxCycles sim.Cycle = 300_000_000

// workers is the concurrency every generator stays within: this host's
// two cores (nproc = 2).
const workers = 2

// workloadInfo identifies a workload instance.
type workloadInfo struct {
	name   string
	seed   uint64
	busy   int               // goroutines the workload keeps busy
	pins   map[string]string // golden digests at this seed; nil if none
	pinned []core.Config     // the configurations golden.json pins
}

func workloadNames() []string { return []string{"paper-sweep", "big-machine", "serve-mix"} }

// newWorkload builds the named workload at a seed. golden may be nil.
func newWorkload(name string, seed uint64, sz size, golden goldenDigests) (bench, error) {
	info := workloadInfo{name: name, seed: seed, busy: workers, pins: golden.pins(name, seed)}
	switch name {
	case "paper-sweep":
		return newPaperSweep(info, sz), nil
	case "big-machine":
		return newBigMachine(info, sz), nil
	case "serve-mix":
		info.busy = 1 // the server's one simulation worker; the clients mostly wait
		return newServeMix(info, sz, serveOptions{}), nil
	}
	return nil, fmt.Errorf("%w %q (want one of %v)", errNoWorkload, name, workloadNames())
}

// machineConfig maps a defaulted run configuration onto the machine layer
// the way core does for configs without tweaks or extension protocols.
func machineConfig(cfg core.Config) machine.Config {
	return machine.Config{
		Model:      cfg.Model,
		Nodes:      cfg.Nodes,
		AppThreads: cfg.AppThreads,
		CPUGHz:     cfg.CPUGHz,
		Shards:     cfg.Shards,
	}
}

// runLayers runs one configuration one layer call at a time, each inside a
// span, and returns the Result core.RunWorkload would: the same fields
// WriteRunJSON serializes, so the digests agree. Of core's per-run work it
// leaves out only the derivation of the Result's paper fields from the
// metrics snapshot, which WriteRunJSON does not serialize.
func runLayers(ctx context.Context, tr *tracer, op int64, parent, tid int, cfg core.Config, w *workload.Workload) *core.Result {
	var m *machine.Machine
	tr.wrap("machine.New", op, parent, tid, func() { m = machine.New(machineConfig(cfg)) })
	tr.wrap("workload.Attach", op, parent, tid, func() { workload.Attach(m, w) })
	var cycles sim.Cycle
	var done bool
	tr.wrap("machine.RunContext", op, parent, tid, func() { cycles, done = m.RunContext(ctx, maxCycles) })
	r := &core.Result{Cfg: cfg, Completed: done, Cycles: cycles, SkippedCycles: m.SkippedCycles()}
	tr.wrap("stats.Snapshot", op, parent, tid, func() { r.Metrics = m.Reg.Snapshot() })
	if m.ShardReg != nil {
		r.ShardMetrics = m.ShardReg.Snapshot()
	}
	if done {
		tr.wrap("machine.CheckCoherence", op, parent, tid, func() { r.CoherenceErr = m.CheckCoherence() })
	} else if ctx.Err() != nil {
		r.Err = ctx.Err()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem) // core reads the heap after every run, for Result.HeapInuseBytes
	r.HeapInuseBytes = mem.HeapInuse
	tr.wrap("core.WriteRunJSON", op, parent, tid, func() { _, _ = digest(r) }) // timed here; checked by the caller
	return r
}

// snapshotProbe runs cfg to the snapshot edge nearest its midpoint, encodes
// the machine, decodes the bytes into a fresh machine, runs that to the
// end and checks the restored run like any other. It returns the encoded
// size in bytes.
func snapshotProbe(ctx context.Context, tr *tracer, ck *checker, op int64, cfg core.Config, w *workload.Workload, total sim.Cycle) (int, error) {
	at := (total / 2) &^ (machine.SnapshotAlign - 1)
	if at == 0 {
		return 0, fmt.Errorf("snapshot probe: %s runs only %d cycles", runLabel(cfg), total)
	}
	m := machine.New(machineConfig(cfg))
	workload.Attach(m, w)
	if ran, done := m.RunContext(ctx, at); done || ran != at {
		return 0, fmt.Errorf("snapshot probe: %s stopped at cycle %d, not %d", runLabel(cfg), ran, at)
	}
	var data []byte
	var err error
	tr.wrap("machine.Snapshot", op, -1, 0, func() { data, err = m.Snapshot() })
	if err != nil {
		return 0, fmt.Errorf("snapshot probe: %w", err)
	}
	m2 := machine.New(machineConfig(cfg))
	workload.Attach(m2, w)
	tr.wrap("machine.Restore", op, -1, 0, func() { err = m2.Restore(data) })
	if err != nil {
		return 0, fmt.Errorf("snapshot probe: restore: %w", err)
	}
	ran, done := m2.RunContext(ctx, maxCycles-at)
	r := &core.Result{Cfg: cfg, Completed: done, Cycles: at + ran, Metrics: m2.Reg.Snapshot()}
	if done {
		r.CoherenceErr = m2.CheckCoherence()
	}
	ck.result(runLabel(cfg), r)
	return len(data), nil
}

// parallel calls fn(i, worker) for i in [0, n) on the benchmark's worker
// count and returns when every call has.
func parallel(n int, fn func(i, tid int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i, tid)
			}
		}(tid)
	}
	wg.Wait()
}

// paperSweep is one figure sweep: five models × six apps at 8 nodes, the
// repository's stand-in for Figure 9 and the paperbench path.
type paperSweep struct {
	workloadInfo
	suite      core.Suite
	nodes, way int
	busy       []float64 // Runner busy fraction per untraced sweep
	headline   float64   // SMTp vs Int512KB geomean of the last sweep
	probeCfg   core.Config
	probeWl    *workload.Workload
	probeCyc   sim.Cycle
}

func newPaperSweep(info workloadInfo, sz size) *paperSweep {
	p := &paperSweep{
		workloadInfo: info,
		suite:        core.Suite{CPUGHz: 2, Scale: 0.25, Seed: info.seed, Workers: workers},
		nodes:        8,
		way:          2,
	}
	if sz == tinySize {
		p.suite.Scale, p.nodes, p.way = 0.05, 2, 1
	}
	for _, app := range core.Apps() {
		for _, model := range core.Models() {
			p.pinned = append(p.pinned, p.cfg(model, app))
		}
	}
	return p
}

func (p *paperSweep) info() workloadInfo { return p.workloadInfo }

// cfg is the defaulted configuration RunFigure runs for (model, app).
func (p *paperSweep) cfg(model core.Model, app core.App) core.Config {
	return core.Config{Model: model, App: app, Nodes: p.nodes, AppThreads: p.way,
		CPUGHz: p.suite.CPUGHz, Scale: p.suite.Scale, Seed: p.suite.Seed}
}

// setup generates the six applications and builds the first machine: the
// work a sweep does before its first simulated cycle.
func (p *paperSweep) setup(ctx context.Context, tr *tracer) error {
	root := tr.begin("setup", -1, -1, 0)
	defer tr.end(root)
	for _, app := range core.Apps() {
		cfg := p.cfg(core.Base, app)
		tr.wrap("workload.Build", -1, root, 0, func() { core.BuildWorkload(cfg) })
	}
	tr.wrap("machine.New", -1, root, 0, func() { machine.New(machineConfig(p.cfg(core.Base, core.FFT))) })
	return ctx.Err()
}

func (p *paperSweep) iterate(ctx context.Context, ck *checker) (iteration, error) {
	s := p.suite
	s.Ctx = ctx
	t0 := time.Now()
	fig := s.RunFigure("paper-sweep", p.nodes, p.way)
	it := iteration{wall: time.Since(t0)}
	var busy time.Duration
	for _, c := range fig.Cells {
		ck.result(runLabel(c.Result.Cfg), c.Result)
		busy += c.Result.WallTime
		it.nodeCycles += float64(c.Result.Cycles) * float64(p.nodes)
	}
	p.busy = append(p.busy, busy.Seconds()/(float64(workers)*it.wall.Seconds()))
	p.headline = smtpVsInt512KB(fig)
	return it, ctx.Err()
}

// smtpVsInt512KB is the paper's headline comparison: the geometric mean
// over apps of SMTp's execution time relative to Int512KB's.
func smtpVsInt512KB(fig *core.Figure) float64 {
	var logSum float64
	n := 0
	for _, app := range core.Apps() {
		s, i := fig.Cell(app, core.SMTp), fig.Cell(app, core.Int512KB)
		if s == nil || i == nil || s.NormTime == 0 || i.NormTime == 0 {
			continue
		}
		logSum += math.Log(s.NormTime / i.NormTime)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// traced runs the sweep as RunFigure does — every app's workload built in
// turn on the calling goroutine, then every app's Base run on the worker
// pool, then the other four models sharing those workloads — with each
// layer call in a span.
func (p *paperSweep) traced(ctx context.Context, tr *tracer, op int64, ck *checker) (iteration, *layerCounts, error) {
	apps, models := core.Apps(), core.Models()
	t0 := time.Now()
	root := tr.begin("sweep", op, -1, 0)
	wls := make([]*workload.Workload, len(apps))
	for i, app := range apps {
		cfg := p.cfg(core.Base, app)
		tr.wrap("workload.Build", op*100+int64(i*len(models)), root, 0, func() { wls[i] = core.BuildWorkload(cfg) })
	}
	results := make([]*core.Result, len(apps)*len(models))
	parallel(len(apps), func(i, tid int) {
		idx := i * len(models)
		results[idx] = runLayers(ctx, tr, op*100+int64(idx), root, tid, p.cfg(core.Base, apps[i]), wls[i])
	})
	rest := len(models) - 1
	parallel(len(apps)*rest, func(j, tid int) {
		a, k := j/rest, 1+j%rest
		idx := a*len(models) + k
		results[idx] = runLayers(ctx, tr, op*100+int64(idx), root, tid, p.cfg(models[k], apps[a]), wls[a])
	})
	tr.end(root)
	it := iteration{wall: time.Since(t0)}
	lc := &layerCounts{}
	for idx, r := range results {
		ck.result(runLabel(r.Cfg), r)
		lc.add(r)
		it.nodeCycles += float64(r.Cycles) * float64(p.nodes)
		if r.Cfg.Model == core.SMTp && r.Cfg.App == core.FFT {
			p.probeCfg, p.probeWl, p.probeCyc = r.Cfg, wls[idx/len(models)], r.Cycles
		}
	}
	return it, lc, ctx.Err()
}

// probe measures the snapshot codec on the sweep's SMTp FFT run.
func (p *paperSweep) probe(ctx context.Context, tr *tracer, ck *checker, lc *layerCounts, m map[string]float64) error {
	n, err := snapshotProbe(ctx, tr, ck, -2, p.probeCfg, p.probeWl, p.probeCyc)
	m["snapshot.bytes"] = float64(n)
	return err
}

func (p *paperSweep) report(ctx context.Context, m map[string]float64, samples map[string]int) error {
	m["core.runner_busy_frac"] = median(p.busy)
	m["core.smtp_vs_int512kb"] = p.headline
	return nil
}

func (p *paperSweep) close() {}

// bigMachine runs the paper-size 32-node SMTp configurations on two shards,
// one at a time: FFT (traffic-heavy) and Water (sync-heavy).
type bigMachine struct {
	workloadInfo
	cfgs []core.Config
	wls  []*workload.Workload
	last []*core.Result // the last traced iteration's runs
}

func newBigMachine(info workloadInfo, sz size) *bigMachine {
	nodes, fftScale, waterScale := 32, 0.25, 0.125
	if sz == tinySize {
		nodes, fftScale, waterScale = 4, 0.05, 0.05
	}
	b := &bigMachine{workloadInfo: info}
	b.cfgs = []core.Config{
		{Model: core.SMTp, App: core.FFT, Nodes: nodes, AppThreads: 2, CPUGHz: 2, Scale: fftScale, Seed: info.seed, Shards: 2},
		{Model: core.SMTp, App: core.Water, Nodes: nodes, AppThreads: 1, CPUGHz: 2, Scale: waterScale, Seed: info.seed, Shards: 2},
	}
	b.pinned = b.cfgs
	return b
}

func (b *bigMachine) info() workloadInfo { return b.workloadInfo }

// setup generates both applications and builds both machines.
func (b *bigMachine) setup(ctx context.Context, tr *tracer) error {
	root := tr.begin("setup", -1, -1, 0)
	defer tr.end(root)
	b.wls = make([]*workload.Workload, len(b.cfgs))
	for i, cfg := range b.cfgs {
		tr.wrap("workload.Build", -1, root, 0, func() { b.wls[i] = core.BuildWorkload(cfg) })
		tr.wrap("machine.New", -1, root, 0, func() { machine.New(machineConfig(cfg)) })
	}
	return ctx.Err()
}

func (b *bigMachine) iterate(ctx context.Context, ck *checker) (iteration, error) {
	t0 := time.Now()
	results := make([]*core.Result, len(b.cfgs))
	for i, cfg := range b.cfgs {
		results[i] = core.RunWorkloadContext(ctx, cfg, b.wls[i])
	}
	it := iteration{wall: time.Since(t0)}
	for _, r := range results {
		ck.result(runLabel(r.Cfg), r)
		it.nodeCycles += float64(r.Cycles) * float64(r.Cfg.Nodes)
	}
	return it, ctx.Err()
}

func (b *bigMachine) traced(ctx context.Context, tr *tracer, op int64, ck *checker) (iteration, *layerCounts, error) {
	t0 := time.Now()
	root := tr.begin("pair", op, -1, 0)
	results := make([]*core.Result, len(b.cfgs))
	for i, cfg := range b.cfgs {
		results[i] = runLayers(ctx, tr, op*100+int64(i), root, 0, cfg, b.wls[i])
	}
	tr.end(root)
	it := iteration{wall: time.Since(t0)}
	lc := &layerCounts{}
	for _, r := range results {
		ck.result(runLabel(r.Cfg), r)
		lc.add(r)
		it.nodeCycles += float64(r.Cycles) * float64(r.Cfg.Nodes)
	}
	b.last = results
	return it, lc, ctx.Err()
}

// probe reruns both configurations serially, which must reproduce the
// sharded digests, and measures the snapshot codec on FFT at its midpoint.
func (b *bigMachine) probe(ctx context.Context, tr *tracer, ck *checker, lc *layerCounts, m map[string]float64) error {
	for i, cfg := range b.cfgs {
		serial := cfg
		serial.Shards = 1
		ck.result(runLabel(serial), core.RunWorkloadContext(ctx, serial, b.wls[i]))
	}
	n, err := snapshotProbe(ctx, tr, ck, -2, b.cfgs[0], b.wls[0], b.last[0].Cycles)
	m["snapshot.bytes"] = float64(n)
	return err
}

func (b *bigMachine) report(ctx context.Context, m map[string]float64, samples map[string]int) error {
	return nil
}

func (b *bigMachine) close() {}
