package pipeline

import (
	"testing"

	"smtpsim/internal/isa"
)

// Look-Ahead Scheduling semantics (§2.3): with LAS the next handler's PC is
// handed to fetch as soon as the previous handler has finished fetching;
// without it, fetch waits for the previous handler's ldctxt to graduate.

func lasRig(las bool) *rig {
	down := &mockDown{auto: true, delay: 30}
	eng := newMockEngine(down)
	syn := &alwaysSync{ready: true}
	cfg := DefaultConfig(1, true)
	cfg.LAS = las
	p := New(cfg, eng, down, syn)
	down.p = p
	eng.AddClocked(p, 1, 0)
	r := &rig{eng: eng, p: p, down: down, syn: syn}
	r.p.SetSource(0, &sliceSource{ins: nil})
	return r
}

// slowTrace is a handler whose body takes a while to drain (long dependent
// ALU chain) so fetch finishes well before graduation.
func slowTrace(base uint64, n int) []isa.Instr {
	var tr []isa.Instr
	for i := 0; i < n; i++ {
		tr = append(tr, isa.Instr{Op: isa.OpIntDiv, Dst: 3, Src1: 3})
	}
	tr = append(tr,
		isa.Instr{Op: isa.OpSwitch, Dst: 1, Addr: 1 << 42, Size: 8},
		isa.Instr{Op: isa.OpLdctxt, Dst: 2, Addr: (1 << 42) + 8, Size: 8, Flags: isa.FlagLastInHandler},
	)
	for i := range tr {
		tr[i].PC = base + uint64(i)*4
	}
	return tr
}

func lasFetchProgress(t *testing.T, las bool) int {
	r := lasRig(las)
	b := r.p.Backend()
	tr1 := slowTrace(1<<41, 12)
	tr2 := slowTrace((1<<41)+0x1000, 4)
	r.warm(tr1)
	r.warm(tr2)
	b.Start(tr1)
	b.Start(tr2)
	// Run until handler 1 has fully fetched but (divide chain) has not
	// graduated, then see whether handler 2's fetch has begun.
	for i := 0; i < 5000; i++ {
		r.step()
		q := r.p.proto.queue
		if len(q) == 2 && q[0].fetchIdx >= len(q[0].trace) {
			// Give fetch a few more cycles to (maybe) cross handlers.
			r.run(20)
			return r.p.proto.queue[1].fetchIdx
		}
	}
	t.Fatal("never reached the fully-fetched-but-executing state")
	return 0
}

func TestLASCrossesHandlerBoundaryEarly(t *testing.T) {
	if got := lasFetchProgress(t, true); got == 0 {
		t.Fatal("with LAS the look-ahead handler must start fetching before the previous graduates")
	}
}

func TestNoLASWaitsForGraduation(t *testing.T) {
	if got := lasFetchProgress(t, false); got != 0 {
		t.Fatalf("without LAS fetch must wait for ldctxt graduation; fetched %d early", got)
	}
}

func TestLASLookAheadCounted(t *testing.T) {
	r := lasRig(true)
	b := r.p.Backend()
	b.Start(slowTrace(1<<41, 6))
	b.Start(slowTrace((1<<41)+0x1000, 4))
	r.run(4000)
	if r.p.proto.LookAheadStarts == 0 {
		t.Fatal("look-ahead starts not counted")
	}
}
