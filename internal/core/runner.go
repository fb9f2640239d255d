package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"smtpsim/internal/workload"
)

// Runner executes a batch of independent simulation jobs across a bounded
// worker pool. Each simulation is single-goroutine and deterministic, so
// the only shared state between concurrent jobs is read-only (pre-built
// workload streams, the static protocol handler table); results are keyed
// by job index, which makes a parallel sweep's output byte-identical to
// the serial one regardless of completion order or worker count.
type Runner struct {
	// Workers bounds the number of concurrent simulations; 0 means
	// GOMAXPROCS. One worker reproduces serial execution exactly.
	Workers int

	// OnProgress, when set, is called after every job finishes. Calls are
	// serialized (never concurrent), but arrive in completion order, not
	// job order.
	OnProgress ProgressFunc
}

// Progress describes one finished job of a batch.
type Progress struct {
	Index  int // index of the finished job in the batch
	Done   int // jobs finished so far, including this one
	Total  int // jobs in the batch
	Result *Result
}

// ProgressFunc observes batch progress.
type ProgressFunc func(Progress)

// Job is one unit of work for a Runner.
type Job struct {
	Cfg Config
	// Workload optionally supplies a pre-built application. Workloads are
	// read-only while running, so many jobs may share one (the per-app
	// figure sweeps do: Base builds it, the other four models reuse it).
	// Nil builds a fresh workload from Cfg inside the worker.
	Workload *workload.Workload
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunBatch executes every job and returns results in job order:
// results[i] belongs to jobs[i], whatever order the pool finished them in.
// A job that panics becomes a failed Result (Completed == false, Err set)
// instead of killing the sweep; cancelling ctx stops in-flight simulations
// at their next context poll and fails the jobs not yet started, again as
// Results rather than a batch-level error.
func (r Runner) RunBatch(ctx context.Context, jobs []Job) []*Result {
	results := make([]*Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		next int64      = -1 // claimed by atomic increment
		mu   sync.Mutex      // serializes OnProgress and the done counter
		done int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//simlint:allow determinism -- worker pool fans out whole simulations; results are index-keyed so output order is fixed
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				res := runJob(ctx, jobs[i])
				results[i] = res
				if r.OnProgress != nil {
					mu.Lock()
					done++
					r.OnProgress(Progress{Index: i, Done: done, Total: len(jobs), Result: res})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// runJob executes one job, converting a panic anywhere in workload
// construction or simulation into a failed Result.
func runJob(ctx context.Context, j Job) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			res = &Result{Cfg: j.Cfg, Err: fmt.Errorf("run panicked: %v", p)}
		}
	}()
	if ctx.Err() != nil {
		return &Result{Cfg: j.Cfg, Err: ctx.Err()}
	}
	if j.Workload != nil {
		return RunWorkloadContext(ctx, j.Cfg, j.Workload)
	}
	return RunContext(ctx, j.Cfg)
}
