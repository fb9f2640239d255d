package memctrl

import (
	"testing"

	"smtpsim/internal/coherence"
)

// BenchmarkLocalWriteWritebackCycle pins the controller's steady-state
// dispatch path at zero allocations per handled message: a processor-
// interface write (local queue slot, SDRAM read table, handler dispatch
// into a recycled trace buffer, refill) followed by the writeback that
// returns the line to its initial unowned state, so every iteration sees
// identical structural state.
func BenchmarkLocalWriteWritebackCycle(b *testing.B) {
	r := newRig(b, 1, defCfg())
	mc, tn := r.mcs[0], r.nodes[0]
	const line = uint64(4096)
	cycle := func() {
		if !mc.EnqueueLocal(uint8(coherence.MsgPIWrite), line) {
			b.Fatal("local queue full")
		}
		for len(tn.refills) == 0 {
			r.eng.Step()
		}
		tn.refills = tn.refills[:0]
		if !mc.EnqueueLocal(uint8(coherence.MsgPIWriteback), line) {
			b.Fatal("local queue full")
		}
		for len(tn.wbacks) == 0 {
			r.eng.Step()
		}
		tn.wbacks = tn.wbacks[:0]
	}
	// Warm every structure: queues, read table, trace buffers, slabs.
	for i := 0; i < 64; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
