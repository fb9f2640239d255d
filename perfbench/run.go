package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many complete set-ups a run times; setup_s is their
// median, so one slow set-up on a shared host does not move it.
const setupReps = 15

// bench is one benchmark workload. Every method runs on the caller's
// goroutine; a workload starts goroutines only inside a call and waits for
// them before returning.
type bench interface {
	info() workloadInfo
	// setup performs one complete set-up and leaves the state the
	// iterations use. run closes the previous set-up's state first.
	setup(ctx context.Context, tr *tracer) error
	// iterate runs one untraced iteration through the public entry points
	// and checks its results.
	iterate(ctx context.Context, ck *checker) (iteration, error)
	// traced runs one iteration with each layer call wrapped in a span and
	// returns the iteration's deterministic work counts.
	traced(ctx context.Context, tr *tracer, op int64, ck *checker) (iteration, *layerCounts, error)
	// probe takes the traced run's extra measurements after the timed
	// iterations. lc holds the last traced iteration's counts.
	probe(ctx context.Context, tr *tracer, ck *checker, lc *layerCounts, m map[string]float64) error
	// report adds the workload's own metrics and sample counts.
	report(ctx context.Context, m map[string]float64, samples map[string]int) error
	close()
}

// iteration is one timed unit of work: a figure sweep, an FFT+Water pair,
// or one round of serve-mix requests.
type iteration struct {
	wall       time.Duration
	nodeCycles float64 // Σ simulated cycles × nodes
}

type runOptions struct {
	seconds int
	traced  bool
	outDir  string
}

// run measures one workload and assembles its record.
func run(ctx context.Context, w bench, o runOptions) (*record, error) {
	defer w.close()
	base := w.info()
	ck := newChecker(base.pins)
	m := map[string]float64{}
	samples := map[string]int{}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}

	// The calibration runs before and after the set-ups and after every
	// iteration; each iteration is rescaled by the calibrations on either
	// side of it, the set-ups by the run's median calibration (calib.go).
	cal := newCalibrator(base.busy)
	defer cal.close()
	cals := []time.Duration{cal.measure()}

	// The set-ups run back to back before the timed loop, as a user's
	// process sets up before its first operation: once iterations have grown
	// the process, a set-up takes up to twice as long. Each starts from the
	// same state: nothing left of the previous one, and a collected heap.
	var setups []float64
	for len(setups) < setupReps {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	budget := time.Duration(o.seconds) * time.Second
	untracedBudget := budget
	if o.traced {
		untracedBudget = budget / 2
	}
	cals = append(cals, cal.measure())
	plain, err := loop(ctx, untracedBudget, func(int64) (iteration, error) {
		it, err := w.iterate(ctx, ck)
		cals = append(cals, cal.measure())
		return it, err
	})
	if err != nil {
		return nil, err
	}
	samples["setups"] = len(setups)
	samples["iterations"] = len(plain)
	raw, norm := iterationMetrics(plain, cals[1:])
	for k, v := range norm {
		m[k] = v
	}
	raw["setup_s"] = median(setups)
	raw["calibration_s"] = median(durations(cals))
	m["setup_s"] = raw["setup_s"] * calNominal.Seconds() / raw["calibration_s"]

	stem := fmt.Sprintf("%s-seed%d-trace%d", base.name, base.seed, boolInt(o.traced))
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if o.traced {
		plainSpeed := m["wall_s"] / calNominal.Seconds()
		if err := tracedPhase(ctx, w, tr, ck, cal, budget-untracedBudget, plainSpeed, m, samples, filepath.Join(o.outDir, stem)); err != nil {
			return nil, err
		}
	}
	if err := w.report(ctx, m, samples); err != nil {
		return nil, err
	}
	// The calibration's working sets are the benchmark's, not the program's.
	raw["vm_hwm_mb"] = peakRSSMB()
	m["peak_rss_mb"] = raw["vm_hwm_mb"] - cal.residentBytes()/(1<<20)

	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	res.Attempted, res.Failed = ck.counts()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec := &record{
		Workload: base.name,
		Seed:     base.seed,
		Trace:    boolInt(o.traced),
		Seconds:  o.seconds,
		Host:     readHost(),
		Samples:  samples,
		Raw:      raw,
		Setups:   setups,
		Walls:    walls(plain),
		Cals:     durations(cals),
		Failures: ck.notes(),
		Result:   res,
	}
	if res.Attempted > 0 {
		rec.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	if err := writeJSONFile(filepath.Join(o.outDir, stem+".record.json"), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// tracedPhase runs traced iterations under the CPU profiler, then the
// workload's probes, and derives the per-layer metrics: span times, work
// counts, runtime deltas, tracing overhead and the per-package host share.
// plainSpeed is the untraced median iteration time in calibrations.
func tracedPhase(ctx context.Context, w bench, tr *tracer, ck *checker, cal *calibrator, budget time.Duration,
	plainSpeed float64, m map[string]float64, samples map[string]int, stem string) error {
	calBefore := cal.measure()
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var lc *layerCounts
	traced, err := loop(ctx, budget, func(op int64) (iteration, error) {
		it, c, err := w.traced(ctx, tr, op, ck)
		lc = c
		return it, err
	})
	runtime.ReadMemStats(&ms1)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	calTraced := (calBefore + cal.measure()).Seconds() / 2
	if err := prof.Close(); err != nil {
		return err
	}
	n := float64(len(traced))
	samples["traced_iterations"] = len(traced)
	m["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n / 1e6
	m["trace.overhead_frac"] = median(walls(traced))/calTraced/plainSpeed - 1

	if err := w.probe(ctx, tr, ck, lc, m); err != nil {
		return err
	}
	lc.metrics(m)
	spanMetrics(tr, m)
	shares, err := hostShares(ctx, prof.Name())
	if err != nil {
		return err
	}
	for pkg, v := range shares {
		m["host_share."+pkg] = v
	}
	if err := writeJSONFile(stem+".trace.json", tr.chromeTrace()); err != nil {
		return err
	}
	return os.WriteFile(stem+".layers.txt", []byte(tr.foldedTable()+shareTable(shares)), 0o644)
}

// loop runs fn until budget has elapsed, always at least once.
func loop(ctx context.Context, budget time.Duration, fn func(op int64) (iteration, error)) ([]iteration, error) {
	start := time.Now()
	var its []iteration
	for op := int64(0); ; op++ {
		if err := ctx.Err(); err != nil {
			return its, err
		}
		it, err := fn(op)
		if err != nil {
			return its, err
		}
		its = append(its, it)
		if time.Since(start) >= budget {
			return its, nil
		}
	}
}

// iterationMetrics returns the median iteration wall time and host
// nanoseconds per simulated node-cycle, as measured (raw) and normalized.
// Iteration i ran between calibrations cals[i] and cals[i+1]; it is
// normalized by their mean, which follows the host's drift more closely
// than one median calibration for the whole run.
func iterationMetrics(its []iteration, cals []time.Duration) (raw, norm map[string]float64) {
	var wall, per, nwall, nper []float64
	for i, it := range its {
		scale := 2 * calNominal.Seconds() / (cals[i] + cals[i+1]).Seconds()
		w := it.wall.Seconds()
		wall, nwall = append(wall, w), append(nwall, w*scale)
		if it.nodeCycles > 0 {
			p := float64(it.wall.Nanoseconds()) / it.nodeCycles
			per, nper = append(per, p), append(nper, p*scale)
		}
	}
	return map[string]float64{"wall_s": median(wall), "ns_per_node_cycle": median(per)},
		map[string]float64{"wall_s": median(nwall), "ns_per_node_cycle": median(nper)}
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func walls(its []iteration) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = it.wall.Seconds()
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// median returns the middle value (mean of the two middle ones for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p < 1) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(float64(len(s))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is how the benchmark's steadiness is judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}
