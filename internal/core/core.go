// Package core is the public API of the SMTp reproduction: it builds the
// paper's machine models, attaches the six applications, runs them to
// completion, and extracts every metric the evaluation section reports —
// normalized execution time split into memory-stall and non-memory cycles
// (Figures 2-11), self-relative speedups (Tables 5-6), protocol occupancy
// (Table 7), protocol-thread characteristics (Table 8), and protocol-thread
// resource occupancy (Table 9).
package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"smtpsim/internal/machine"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
	"smtpsim/internal/workload"
)

// Model re-exports the machine models.
type Model = machine.Model

// The five machine models of Table 4.
const (
	Base       = machine.Base
	IntPerfect = machine.IntPerfect
	Int512KB   = machine.Int512KB
	Int64KB    = machine.Int64KB
	SMTp       = machine.SMTp
)

// Models lists the five machine models in paper order.
func Models() []Model { return machine.Models() }

// App re-exports the applications.
type App = workload.App

// The six applications of Table 1.
const (
	FFT   = workload.FFT
	FFTW  = workload.FFTW
	LU    = workload.LU
	Ocean = workload.Ocean
	Radix = workload.Radix
	Water = workload.Water
)

// Apps lists the six applications in paper order.
func Apps() []App { return workload.Apps() }

// Cycle re-exports the simulated-cycle type.
type Cycle = sim.Cycle

// Config selects one run.
type Config struct {
	Model      Model
	App        App
	Nodes      int
	AppThreads int     // 1, 2, or 4 ("n-way")
	CPUGHz     float64 // 2 (default) or 4
	Scale      float64 // workload problem-size multiplier
	Seed       uint64
	SizeFor    int // strong-scaling anchor; 0 = AppThreads*Nodes

	// MaxCycles bounds the run (0 = a generous default).
	MaxCycles sim.Cycle

	// Tweak selects a named pipeline ablation from the registry ("" = the
	// unmodified core; see TweakNames and RegisterTweak). Being a name
	// rather than a func keeps the config serializable and hashable.
	Tweak string
	// Proto selects a named coherence-protocol variant ("" or "base" = the
	// paper's protocol, "revive" = the §6 rollback-logging extension; see
	// ProtocolNames and RegisterProtocol).
	Proto string

	// MetricsInterval, when non-zero, additionally records a time series of
	// every registered metric each MetricsInterval cycles; the run's Result
	// then carries the series (see Result.Series).
	MetricsInterval sim.Cycle
	// MetricsDepth bounds the time-series ring buffer (0 = 1024 samples;
	// when the run outlives the buffer, the oldest samples are dropped and
	// Series.Dropped counts them).
	MetricsDepth int

	// SamplePeriod, when non-zero, switches the run to sampled simulation
	// (DESIGN.md §14): detailed windows of SampleWindow cycles alternate
	// with fast-forward phases that functionally execute up to SamplePeriod
	// instructions per application thread — branch predictors train and
	// synchronization resolves, but no cycles pass and caches stay cold.
	// Unlike Shards below, sampling changes the simulated outcome, so both
	// sampling fields are part of the canonical form and the hash.
	SamplePeriod uint64
	// SampleWindow is the detailed-window length between fast-forward
	// phases. It must be a positive multiple of 256 (the engine's batch
	// quantum) exactly when SamplePeriod is set, and zero otherwise.
	SampleWindow sim.Cycle

	// ReferenceKernel runs on the reference kernel: the cycle-skipping
	// kernel with every lazy component registered as a plain one, so every
	// component ticks at every due cycle and no cycle is skipped. Results
	// are observably identical (pinned by TestKernelDifferential); this
	// exists as the differential oracle and for kernel-bug bisection.
	ReferenceKernel bool

	// Shards partitions the simulated machine's nodes across that many OS
	// threads with conservative time-quantum synchronization (DESIGN.md
	// §13). Purely an execution knob: results are byte-identical at every
	// shard count, so Shards is excluded from the config's canonical form
	// and hash. 0 or 1 runs serially; the machine clamps other values to
	// the largest divisor of Nodes and forces 1 when the reference kernel
	// or metric sampling needs the single global engine.
	Shards int
}

// Validate reports whether the configuration describes a machine the
// simulator can build. Zero values are legal (they select the documented
// defaults); non-zero values must be exact: the paper's node counts are
// powers of two (the bristled hypercube has no other shape), nodes run 1,
// 2 or 4 application threads ("n-way"), and the problem-size multiplier
// must be positive.
func (c Config) Validate() error {
	if int(c.App) < 0 || int(c.App) >= int(workload.NumApps) {
		return fmt.Errorf("config: unknown app %d", int(c.App))
	}
	if int(c.Model) < 0 || int(c.Model) > int(SMTp) {
		return fmt.Errorf("config: unknown model %d", int(c.Model))
	}
	if c.Nodes < 0 || c.Nodes > 1024 {
		return fmt.Errorf("config: node count %d out of range (1..1024)", c.Nodes)
	}
	if c.Nodes != 0 && bits.OnesCount(uint(c.Nodes)) != 1 {
		return fmt.Errorf("config: node count %d is not a power of two", c.Nodes)
	}
	switch c.AppThreads {
	case 0, 1, 2, 4:
	default:
		return fmt.Errorf("config: %d application threads per node (want 1, 2 or 4)", c.AppThreads)
	}
	if c.CPUGHz < 0 {
		return fmt.Errorf("config: negative clock %v GHz", c.CPUGHz)
	}
	if c.Scale < 0 {
		return fmt.Errorf("config: negative problem scale %v", c.Scale)
	}
	if c.SizeFor < 0 {
		return fmt.Errorf("config: negative SizeFor %d", c.SizeFor)
	}
	if c.MetricsDepth < 0 {
		return fmt.Errorf("config: negative MetricsDepth %d", c.MetricsDepth)
	}
	if c.Shards < 0 {
		return fmt.Errorf("config: negative Shards %d", c.Shards)
	}
	if (c.SamplePeriod > 0) != (c.SampleWindow > 0) {
		return fmt.Errorf("config: SamplePeriod (%d) and SampleWindow (%d) must be set together", c.SamplePeriod, c.SampleWindow)
	}
	if c.SampleWindow < 0 || c.SampleWindow%256 != 0 {
		return fmt.Errorf("config: SampleWindow %d must be a non-negative multiple of 256", c.SampleWindow)
	}
	if _, err := lookupTweak(c.Tweak); err != nil {
		return err
	}
	if _, err := lookupProtocol(c.Proto); err != nil {
		return err
	}
	return nil
}

// withDefaults validates c and fills the documented defaults for zero
// fields. Invalid non-zero values are an error, never silently corrected.
func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.AppThreads == 0 {
		c.AppThreads = 1
	}
	if c.CPUGHz == 0 {
		c.CPUGHz = 2
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 300_000_000
	}
	return c, nil
}

// Result carries every metric a run produces.
type Result struct {
	Cfg       Config
	Completed bool
	Cycles    sim.Cycle

	// Err is set when the run could not execute: the configuration failed
	// validation, the run panicked inside a Runner batch, or the context
	// was cancelled (in which case the counters below describe the partial
	// run). A Result with Err != nil never has Completed == true.
	Err error

	// Observability (not part of the simulated outcome and therefore
	// excluded from determinism comparisons): host wall time of the run,
	// simulation throughput, and a peak-RSS-style footprint signal (the Go
	// heap in use when the run finished; process-wide, so concurrent batch
	// runs share it).
	WallTime       time.Duration
	CyclesPerSec   float64
	HeapInuseBytes uint64
	// SkippedCycles is how many simulated cycles the kernel elided via
	// quiescence skipping: 0 on the reference kernel, unless the run
	// resumed from a skipping kernel's checkpoint, whose count it
	// inherits. Host-side observability like WallTime: excluded from
	// WriteRunJSON.
	SkippedCycles uint64

	// Execution-time split (averaged over application threads).
	MemStallFrac float64
	NonMemFrac   float64

	// Protocol work (Table 7): busy fraction per node; Peak is the paper's
	// reported number.
	ProtoOccupancy     []float64
	ProtoOccupancyPeak float64

	// Protocol-thread characteristics (Table 8; SMTp only).
	ProtoBrMispredRate float64
	ProtoSquashPct     float64
	ProtoRetiredPct    float64

	// Protocol-thread resource occupancy (Table 9; SMTp only): peak across
	// nodes and mean of per-node peaks.
	OccBrStack, OccIntRegs, OccIQ, OccLSQ OccPair

	// Raw counters for further analysis.
	RetiredApp   uint64
	RetiredProto uint64
	L1DMisses    uint64
	L2Misses     uint64
	NetworkMsgs  uint64
	BypassFills  uint64
	Dispatched   uint64
	LookAheads   uint64
	Deferred     uint64
	CoherenceErr error

	// Metrics is the end-of-run snapshot of the machine-wide metrics
	// registry: every subsystem counter under its stable dotted name (see
	// METRICS.md for the schema). Identical configurations produce
	// byte-identical Metrics.WriteJSON output. Nil when the run never built
	// a machine (validation failure).
	Metrics *stats.Snapshot

	// Series is the cycle-sampled metric time series, recorded every
	// Config.MetricsInterval cycles. Nil unless MetricsInterval was set.
	Series *stats.Series

	// ShardMetrics is the end-of-run snapshot of the sharded coordinator's
	// execution telemetry (the shard.* names: quanta, barrier waits, serial
	// and parallel cycles — see METRICS.md). Execution-side observability
	// like WallTime: the values depend on the shard count, so they are
	// deterministic per (config, shards) but excluded from WriteRunJSON and
	// every determinism comparison. Nil on serial runs.
	ShardMetrics *stats.Snapshot
}

// OccPair is a (peak across nodes, mean of per-node peaks) pair as in
// Table 9.
type OccPair struct {
	Peak int
	Mean float64
}

func (o OccPair) String() string { return fmt.Sprintf("%d, %.0f", o.Peak, o.Mean) }

// BuildWorkload constructs the application for a config (exported so a
// suite can share one workload across the five models). An invalid config
// panics; call Validate first when the config is untrusted.
func BuildWorkload(cfg Config) *workload.Workload {
	cfg, err := cfg.withDefaults()
	if err != nil {
		panic("core: " + err.Error())
	}
	return workload.Build(workload.Params{
		App:     cfg.App,
		Threads: cfg.Nodes * cfg.AppThreads,
		Nodes:   cfg.Nodes,
		Scale:   cfg.Scale,
		Seed:    cfg.Seed + 1,
		SizeFor: cfg.SizeFor,
	})
}

// Run builds the machine and workload and runs to completion.
func Run(cfg Config) *Result {
	return RunContext(context.Background(), cfg)
}

// RunContext builds the machine and workload and runs to completion or
// cancellation. The machine polls ctx roughly every million simulated
// cycles; on cancellation the Result carries the partial counters with
// Completed == false and Err == ctx.Err(). A config that fails Validate
// returns immediately with Err set.
func RunContext(ctx context.Context, cfg Config) *Result {
	c, err := cfg.withDefaults()
	if err != nil {
		return &Result{Cfg: cfg, Err: err}
	}
	return RunWorkloadContext(ctx, c, BuildWorkload(c))
}

// RunWorkload runs a pre-built workload on a fresh machine.
func RunWorkload(cfg Config, w *workload.Workload) *Result {
	return RunWorkloadContext(context.Background(), cfg, w)
}

// RunWorkloadContext runs a pre-built workload on a fresh machine under a
// context. The workload is only read, so the same *Workload may back many
// concurrent runs (that is how a Runner shares one application across the
// five machine models).
func RunWorkloadContext(ctx context.Context, cfg Config, w *workload.Workload) *Result {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return &Result{Cfg: cfg, Err: err}
	}
	start := time.Now() //simlint:allow determinism -- host-side wall-time observability; never feeds simulated state
	m := machine.New(machineConfig(cfg))
	workload.Attach(m, w)
	cycles, done := driveMachine(ctx, cfg, m)
	r := harvest(cfg, m, cycles, done)
	r.SkippedCycles = m.SkippedCycles()
	if !done && ctx.Err() != nil {
		r.Err = ctx.Err()
	}
	observe(r, start)
	return r
}

// machineConfig maps a defaulted config onto the machine it describes,
// resolving the named tweak and protocol through the registries (the names
// passed Validate, so the lookups cannot fail here). Each call builds a
// fresh protocol table, so stateful tables stay private to their run.
func machineConfig(cfg Config) machine.Config {
	tweak, _ := lookupTweak(cfg.Tweak)
	protocol, _ := lookupProtocol(cfg.Proto)
	return machine.Config{
		Model:          cfg.Model,
		Nodes:          cfg.Nodes,
		AppThreads:     cfg.AppThreads,
		CPUGHz:         cfg.CPUGHz,
		PipeTweak:      tweak,
		Protocol:       protocol(),
		Shards:         cfg.Shards,
		SampleInterval: cfg.MetricsInterval,
		SampleCapacity: cfg.MetricsDepth,

		ReferenceKernel: cfg.ReferenceKernel,
	}
}

// driveMachine runs an attached machine to completion, cancellation, or
// the cycle budget. Under sampled simulation (SamplePeriod > 0) it
// alternates detailed windows with functional fast-forward phases; the
// reported cycle count covers only the detailed windows, since no
// simulated time passes while fast-forwarding.
func driveMachine(ctx context.Context, cfg Config, m *machine.Machine) (sim.Cycle, bool) {
	if cfg.SamplePeriod == 0 {
		return m.RunContext(ctx, cfg.MaxCycles)
	}
	var cycles sim.Cycle
	for cycles < cfg.MaxCycles && ctx.Err() == nil {
		win := cfg.SampleWindow
		if rem := cfg.MaxCycles - cycles; win > rem {
			win = rem
		}
		ran, done := m.RunContext(ctx, win)
		cycles += ran
		if done {
			return cycles, true
		}
		// A fast-forward that consumes nothing is fine: the remaining
		// streams are drained or waiting on in-flight detailed work, and
		// the next detailed window moves that along.
		m.FastForward(cfg.SamplePeriod)
	}
	return cycles, false
}

// observe fills the Result's host-side observability fields: wall time,
// simulated-cycles-per-second throughput, and the heap footprint.
func observe(r *Result, start time.Time) {
	r.WallTime = time.Since(start) //simlint:allow determinism -- host-side wall-time observability; excluded from metric exports
	if s := r.WallTime.Seconds(); s > 0 {
		r.CyclesPerSec = float64(r.Cycles) / s
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.HeapInuseBytes = ms.HeapInuse
}

// harvest derives the Result's paper metrics from the end-of-run registry
// snapshot. Every value below is read by its stable dotted metric name (the
// schema in METRICS.md); the raw counters all fit in float64 exactly, so
// the arithmetic matches direct field reads bit for bit.
func harvest(cfg Config, m *machine.Machine, cycles sim.Cycle, done bool) *Result {
	r := &Result{Cfg: cfg, Completed: done, Cycles: cycles}
	snap := m.Reg.Snapshot()
	r.Metrics = snap
	if m.ShardReg != nil {
		r.ShardMetrics = m.ShardReg.Snapshot()
	}
	if rec := m.Recorder(); rec != nil {
		r.Series = rec.Series()
	}
	r.NetworkMsgs = snap.Uint("net.sent")
	if done {
		r.CoherenceErr = m.CheckCoherence()
	}

	var memStallSum float64
	var appThreads int
	var brRes, brMis, squashCyc uint64
	var brStack, intRegs, iq, lsq stats.Peak

	for i, n := range m.Nodes {
		at := func(name string) string { return fmt.Sprintf("node%d.%s", i, name) }
		total := snap.Value(at("pipe.cycles"))
		for t := 0; t < cfg.AppThreads; t++ {
			ctx := fmt.Sprintf("pipe.ctx%d.", t)
			memStallSum += snap.Value(at(ctx+"mem_stall_cycles")) / total
			appThreads++
			r.RetiredApp += snap.Uint(at(ctx + "retired"))
		}
		r.L1DMisses += snap.Uint(at("pipe.mem.l1d_missed"))
		r.L2Misses += snap.Uint(at("pipe.mem.l2_missed"))
		r.BypassFills += snap.Uint(at("pipe.mem.bypass_fills"))
		r.Dispatched += snap.Uint(at("mc.dispatched"))
		r.Deferred += snap.Uint(at("deferred_interventions"))

		var occ float64
		if cfg.Model == SMTp {
			occ = snap.Value(at("pipe.proto.active_cycles")) / total
			r.RetiredProto += snap.Uint(at("pipe.proto.retired"))
			brRes += snap.Uint(at("pipe.proto.br_resolved"))
			brMis += snap.Uint(at("pipe.proto.br_mispredicted"))
			squashCyc += snap.Uint(at("pipe.proto.squash_cycles"))
			r.LookAheads += snap.Uint(at("pipe.proto.lookahead_starts"))
			brStack.Sample(int(snap.Value(at("pipe.proto.occ.br_stack.max"))))
			intRegs.Sample(int(snap.Value(at("pipe.proto.occ.int_reg.max"))))
			iq.Sample(int(snap.Value(at("pipe.proto.occ.iq.max"))))
			lsq.Sample(int(snap.Value(at("pipe.proto.occ.lsq.max"))))
		} else if n.PP != nil {
			mcTicks := total / float64(n.MC.Cfg().ClockDiv)
			occ = snap.Value(at("pp.busy_cycles")) / mcTicks
			r.RetiredProto += snap.Uint(at("pp.retired"))
		}
		r.ProtoOccupancy = append(r.ProtoOccupancy, occ)
		if occ > r.ProtoOccupancyPeak {
			r.ProtoOccupancyPeak = occ
		}
	}
	if appThreads > 0 {
		r.MemStallFrac = memStallSum / float64(appThreads)
		r.NonMemFrac = 1 - r.MemStallFrac
	}
	if cfg.Model == SMTp {
		r.ProtoBrMispredRate = stats.Ratio(brMis, brRes)
		totalCyc := float64(cycles) * float64(cfg.Nodes)
		r.ProtoSquashPct = 100 * float64(squashCyc) / totalCyc
		r.ProtoRetiredPct = 100 * stats.Ratio(r.RetiredProto, r.RetiredProto+r.RetiredApp)
		r.OccBrStack = OccPair{brStack.Max(), brStack.Mean()}
		r.OccIntRegs = OccPair{intRegs.Max(), intRegs.Mean()}
		r.OccIQ = OccPair{iq.Max(), iq.Mean()}
		r.OccLSQ = OccPair{lsq.Max(), lsq.Mean()}
	}
	return r
}
