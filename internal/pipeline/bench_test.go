package pipeline

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/isa"
)

// BenchmarkTLBLookup measures the ITLB hit path under the pattern a
// two-thread core produces: fetch alternates between the threads' code
// pages, so every lookup misses the single `last` entry and must find its
// page among the resident ones. Both pages are resident; steady state is
// all hits and allocation-free.
func BenchmarkTLBLookup(b *testing.B) {
	tb := newTLB(DefaultConfig(2, false).TLBEntries)
	pcs := [2]uint64{addrmap.AppCodeBase, addrmap.AppCodeBase + 0x100000}
	for _, pc := range pcs {
		tb.lookup(pc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tb.lookup(pcs[i&1] + uint64(i&0x3ff)*4) {
			b.Fatal("resident code page missed")
		}
	}
}

// loopSource replays a fixed instruction slice forever.
type loopSource struct {
	ins []isa.Instr
	pos int
}

func (s *loopSource) Peek() *isa.Instr { return &s.ins[s.pos] }
func (s *loopSource) Advance() {
	if s.pos++; s.pos == len(s.ins) {
		s.pos = 0
	}
}
func (s *loopSource) Done() bool { return false }

// BenchmarkPipelineTick measures one cycle of a busy four-thread core: each
// thread loops over a mix of dependent and independent integer ops, FP ops
// and loads that hit in a warm L1D, so every stage — fetch, decode,
// rename, both issue queues, the load/store queue, writeback and commit —
// works every cycle. Steady state is allocation-free.
func BenchmarkPipelineTick(b *testing.B) {
	r := newRig(4, false)
	f1, f2 := isa.FirstFP, isa.FirstFP+1
	for tid := 0; tid < 4; tid++ {
		data := uint64(tid) * 0x10000
		body := []isa.Instr{
			{Op: isa.OpLoad, Dst: 1, Addr: data, Size: 8},
			{Op: isa.OpIntALU, Dst: 2, Src1: 1},
			{Op: isa.OpIntALU, Dst: 3},
			{Op: isa.OpIntMul, Dst: 4, Src1: 3},
			{Op: isa.OpLoad, Dst: f1, Addr: data + 64, Size: 8},
			{Op: isa.OpFPALU, Dst: f2, Src1: f1},
			{Op: isa.OpIntALU, Dst: 5, Src1: 2, Src2: 4},
			{Op: isa.OpFPMul, Dst: f1, Src1: f2},
		}
		ins := prog(addrmap.AppCodeBase+uint64(tid)*0x100000, body...)
		r.warm(ins)
		for _, in := range ins {
			if in.Op == isa.OpLoad {
				r.p.l2.Fill(in.Addr, cache.Exclusive)
				r.p.l1d.Fill(in.Addr, cache.Exclusive)
			}
		}
		r.p.SetSource(tid, &loopSource{ins: ins})
	}
	r.run(5000) // TLB walks, predictor and pools warm
	start := r.p.Retired[0] + r.p.Retired[1] + r.p.Retired[2] + r.p.Retired[3]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.eng.Step()
	}
	b.StopTimer()
	end := r.p.Retired[0] + r.p.Retired[1] + r.p.Retired[2] + r.p.Retired[3]
	b.ReportMetric(float64(end-start)/float64(b.N), "IPC")
}
