// Engine microbenchmarks isolating the kernel fast paths: dense event
// traffic (heap throughput), sparse events over quiescent stretches
// (cycle skipping; must show zero per-event heap allocations), and an
// all-quiescent machine (pure jump cost). The reference-engine twins of
// the last two step the same workloads cycle by cycle, pricing what
// skipping saves:
//
//	go test ./internal/sim -run '^$' -bench . -benchmem
package sim

import "testing"

// BenchmarkDenseEvents measures heap push/pop throughput with a steady
// backlog: each operation schedules 8 events spread over the next 8
// cycles and steps once, so every cycle fires 8 events.
func BenchmarkDenseEvents(b *testing.B) {
	e := NewEngine(func(Desc) {})
	d := Desc{Kind: 1}
	// Prime the backlog so the timed region runs at steady state.
	for i := 0; i < 8; i++ {
		for j := Cycle(1); j <= 8; j++ {
			e.Schedule(e.Now()+j, d)
		}
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := Cycle(1); j <= 8; j++ {
			e.Schedule(e.Now()+j, d)
		}
		e.Step()
	}
}

// BenchmarkSparseEvents measures the skipping path: one event every 1000
// cycles with nothing clocked. Each operation schedules, jumps the gap,
// and fires. The -benchmem allocation count pins the no-per-event-
// allocation property (the heap's and the descriptor arena's backing
// slices are reused).
func BenchmarkSparseEvents(b *testing.B) {
	fired := 0
	e := NewEngine(func(Desc) { fired++ })
	d := Desc{Kind: 1}
	e.Schedule(e.Now()+1, d)
	e.Step() // warm the heap's backing slice
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1000, d)
		e.Advance(NoWork)
	}
	b.StopTimer()
	if fired != b.N+1 {
		b.Fatalf("fired %d events, want %d", fired, b.N+1)
	}
}

// BenchmarkSparseEventsReference steps the same sparse workload cycle by
// cycle — the cost the skipping engine avoids.
func BenchmarkSparseEventsReference(b *testing.B) {
	e := NewReferenceEngine(func(Desc) {})
	d := Desc{Kind: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1000, d)
		for j := 0; j < 1000; j++ {
			e.Step()
		}
	}
}

// benchIdleComp is permanently quiescent with a per-cycle counter, like a
// fully stalled pipeline.
type benchIdleComp struct {
	cycles uint64
}

func (c *benchIdleComp) Tick(Cycle) { c.cycles++ }
func (c *benchIdleComp) NextWork(Cycle) (Cycle, bool) {
	return NoWork, true
}
func (c *benchIdleComp) Skipped(n uint64, _ Cycle) { c.cycles += n }

// BenchmarkAllQuiescent measures the jump cost of a 16-component machine
// with nothing to do: each operation covers 4096 simulated cycles.
func BenchmarkAllQuiescent(b *testing.B) {
	e := NewEngine(nil)
	comps := make([]*benchIdleComp, 16)
	for i := range comps {
		comps[i] = &benchIdleComp{}
		e.AddLazy(comps[i], 1, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Advance(e.Now() + 4096)
	}
	b.StopTimer()
	e.FlushDeferred()
	want := uint64(b.N) * 4096
	for _, c := range comps {
		if c.cycles != want {
			b.Fatalf("per-cycle delta drifted: %d of %d", c.cycles, want)
		}
	}
}

// BenchmarkAllQuiescentReference ticks the same 16 idle components every
// cycle, 4096 cycles per operation.
func BenchmarkAllQuiescentReference(b *testing.B) {
	e := NewReferenceEngine(nil)
	for i := 0; i < 16; i++ {
		e.AddLazy(&benchIdleComp{}, 1, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(4096)
	}
}
