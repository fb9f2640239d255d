package workload

import (
	"testing"

	"smtpsim/internal/machine"
)

// TestDirectoryCachePressure pins the Int64KB-vs-Int512KB differentiation
// of the paper's single-node results (Base beats Int64KB by 20% on
// Radix-Sort, Figure 4): once the directory footprint exceeds 64 KB, the
// small directory cache must miss more and run slower. Skipped in -short
// mode (the footprint needs a scale-48 problem).
func TestDirectoryCachePressure(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a large problem to exceed the 64KB directory cache")
	}
	w := Build(Params{App: Radix, Threads: 1, Nodes: 1, Scale: 48, Seed: 2})
	type outcome struct{ cycles, misses uint64 }
	var o512, o64 outcome
	// The two machines only read w, so they run as parallel subtests; the
	// group returns once both have finished.
	t.Run("models", func(t *testing.T) {
		for _, tc := range []struct {
			model machine.Model
			out   *outcome
		}{{machine.Int512KB, &o512}, {machine.Int64KB, &o64}} {
			t.Run(tc.model.String(), func(t *testing.T) {
				t.Parallel()
				m := machine.New(machine.Config{Model: tc.model, Nodes: 1, AppThreads: 1})
				Attach(m, w)
				cyc, done := m.Run(100_000_000)
				if !done {
					t.Fatalf("%v did not complete", tc.model)
				}
				*tc.out = outcome{uint64(cyc), m.Nodes[0].PP.DirMisses()}
			})
		}
	})
	if t.Failed() {
		return
	}
	if o64.misses <= o512.misses {
		t.Fatalf("64KB dir cache misses (%d) must exceed 512KB's (%d)", o64.misses, o512.misses)
	}
	if o64.cycles <= o512.cycles {
		t.Fatalf("Int64KB (%d cycles) must be slower than Int512KB (%d)", o64.cycles, o512.cycles)
	}
}
