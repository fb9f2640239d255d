package core

import (
	"context"
	"errors"
	"testing"

	"smtpsim/internal/pipeline"
)

// sweepJobs is the 2-app x 5-model sweep the determinism test runs at two
// worker counts.
func sweepJobs() []Job {
	var jobs []Job
	for _, app := range []App{FFT, Water} {
		for _, model := range Models() {
			jobs = append(jobs, Job{Cfg: Config{
				Model: model, App: app, Nodes: 2, AppThreads: 1, Scale: 0.25, Seed: 9,
			}})
		}
	}
	return jobs
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := Runner{Workers: 1}.RunBatch(context.Background(), sweepJobs())
	parallel := Runner{Workers: 8}.RunBatch(context.Background(), sweepJobs())
	if len(serial) != len(parallel) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, a.Err, b.Err)
		}
		if !a.Completed || !b.Completed {
			t.Fatalf("job %d incomplete", i)
		}
		if a.Cycles != b.Cycles || a.RetiredApp != b.RetiredApp {
			t.Fatalf("job %d (%v/%v): workers=1 got %d cycles/%d retired, workers=8 got %d/%d",
				i, a.Cfg.App, a.Cfg.Model, a.Cycles, a.RetiredApp, b.Cycles, b.RetiredApp)
		}
	}
}

func TestRunnerPanicBecomesFailedResult(t *testing.T) {
	boom := func(*pipeline.Config) { panic("injected pipeline panic") }
	jobs := []Job{
		{Cfg: Config{Model: SMTp, App: Water, Nodes: 1, Scale: 0.25, Seed: 2, PipeTweak: boom}},
		{Cfg: Config{Model: SMTp, App: Water, Nodes: 1, Scale: 0.25, Seed: 2}},
	}
	results := Runner{Workers: 2}.RunBatch(context.Background(), jobs)
	if results[0].Err == nil || results[0].Completed {
		t.Fatalf("panicking job must fail: %+v", results[0])
	}
	if results[1].Err != nil || !results[1].Completed {
		t.Fatalf("healthy job must survive its neighbour's panic: %v", results[1].Err)
	}
}

func TestRunnerValidationErrorsSurface(t *testing.T) {
	jobs := []Job{{Cfg: Config{Model: SMTp, App: FFT, Nodes: 3}}}
	res := Runner{}.RunBatch(context.Background(), jobs)[0]
	if res.Err == nil || res.Completed {
		t.Fatalf("invalid config must fail the job, got %+v", res)
	}
}

// cancelOnPoll is a context that cancels itself on its first Err poll:
// that poll still sees it live, every later one sees context.Canceled. The
// machine polls at cycle 0 and then every ctxCheckBatches batches, so a run
// under it stops at a fixed simulated cycle, whatever the host's speed.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
}

func (c *cancelOnPoll) Err() error {
	err := c.Context.Err()
	c.cancel()
	return err
}

func TestRunContextCancellation(t *testing.T) {
	cfg := Config{Model: SMTp, App: Ocean, Nodes: 2, AppThreads: 1, Scale: 1, Seed: 4}

	// Pre-cancelled context: nothing simulates.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if res := RunContext(cancelled, cfg); res.Completed || res.Cycles != 0 {
		t.Fatalf("pre-cancelled run simulated %d cycles", res.Cycles)
	}

	// Cancel mid-run: partial counters, Completed false, Err records it.
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	res := RunContext(&cancelOnPoll{Context: ctx, cancel: cancelMid}, cfg)
	if res.Completed {
		t.Skip("run finished before the cancellation fired; nothing to assert")
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", res.Err)
	}
	if res.Cycles == 0 {
		t.Fatal("mid-run cancellation should return partial progress")
	}
}

func TestRunnerCancelFailsPendingJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := sweepJobs()
	results := Runner{Workers: 2}.RunBatch(ctx, jobs)
	for i, res := range results {
		if res.Completed || res.Err == nil {
			t.Fatalf("job %d ran despite cancelled batch: %+v", i, res)
		}
	}
}

func TestRunnerProgressReporting(t *testing.T) {
	jobs := sweepJobs()
	var events []Progress
	r := Runner{Workers: 4, OnProgress: func(p Progress) { events = append(events, p) }}
	r.RunBatch(context.Background(), jobs)
	if len(events) != len(jobs) {
		t.Fatalf("%d progress events for %d jobs", len(events), len(jobs))
	}
	seen := map[int]bool{}
	for i, e := range events {
		if e.Done != i+1 || e.Total != len(jobs) {
			t.Fatalf("event %d: done %d total %d", i, e.Done, e.Total)
		}
		if e.Result == nil || seen[e.Index] {
			t.Fatalf("event %d: bad index %d or missing result", i, e.Index)
		}
		seen[e.Index] = true
	}
}

func TestRunnerObservabilityCounters(t *testing.T) {
	res := Run(Config{Model: Base, App: Water, Nodes: 1, Scale: 0.25, Seed: 6})
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	if res.WallTime <= 0 || res.CyclesPerSec <= 0 || res.HeapInuseBytes == 0 {
		t.Fatalf("observability counters missing: wall=%v cps=%v heap=%d",
			res.WallTime, res.CyclesPerSec, res.HeapInuseBytes)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{},
		{Nodes: 4, AppThreads: 2},
		{Model: SMTp, App: Water, Nodes: 32, AppThreads: 4, CPUGHz: 4, Scale: 2},
	}
	for i, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %d rejected: %v", i, err)
		}
	}
	invalid := []Config{
		{Nodes: 3},
		{Nodes: -2},
		{Nodes: 2048},
		{AppThreads: 3},
		{AppThreads: 8},
		{Scale: -1},
		{CPUGHz: -2},
		{SizeFor: -1},
		{App: App(99)},
		{Model: Model(99)},
	}
	for i, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config %d accepted: %+v", i, c)
		}
	}
}

// TestSuiteParallelMatchesSerial pins the tentpole guarantee end to end: a
// figure produced with one worker renders byte-identically to the same
// figure produced with eight.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) string {
		s := Suite{CPUGHz: 2, Scale: 0.25, Seed: 7, Workers: workers}
		return s.RunFigure("parallel-vs-serial", 2, 1).Render()
	}
	serial, parallel := mk(1), mk(8)
	if serial != parallel {
		t.Fatalf("figure output differs between worker counts:\n--- workers=1\n%s--- workers=8\n%s",
			serial, parallel)
	}
}
