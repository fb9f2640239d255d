package pipeline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
)

// sliceSource feeds a fixed instruction slice.
type sliceSource struct {
	ins []isa.Instr
	pos int
}

func (s *sliceSource) Peek() *isa.Instr {
	if s.pos >= len(s.ins) {
		return nil
	}
	return &s.ins[s.pos]
}
func (s *sliceSource) Advance()   { s.pos++ }
func (s *sliceSource) Done() bool { return s.pos >= len(s.ins) }

// mockDown is a scripted memory system.
type mockDown struct {
	eng   *sim.Engine
	p     *Pipeline
	msgs  []*network.Message
	auto  bool
	delay sim.Cycle
	fired []uint32
}

// Event kinds the scripted memory system schedules for its own replies,
// above every kind a real component claims.
const (
	kMockRefill uint8 = 200 + iota
	kMockUpgrade
	kMockWBAck
)

// newMockEngine returns an engine whose fire function runs the mock's own
// replies and hands every other descriptor to the pipeline, as a machine's
// does.
func newMockEngine(d *mockDown) *sim.Engine {
	d.eng = sim.NewEngine(d.fire)
	return d.eng
}

func (d *mockDown) fire(dc sim.Desc) {
	switch dc.Kind {
	case kMockRefill:
		d.p.DeliverRefill(dc.Args[0], cache.Exclusive, 0, false)
	case kMockUpgrade:
		d.p.DeliverRefill(dc.Args[0], cache.Exclusive, 0, true)
	case kMockWBAck:
		d.p.DeliverWBAck(dc.Args[0])
	default:
		d.p.Fire(dc)
	}
}

func (d *mockDown) EnqueueLocal(t uint8, line uint64) bool {
	m := &network.Message{Type: t, Addr: line}
	d.msgs = append(d.msgs, m)
	if d.auto {
		reply := sim.Desc{Args: [6]uint64{line}}
		switch coherence.MsgType(m.Type) {
		case coherence.MsgPIRead, coherence.MsgPIWrite:
			reply.Kind = kMockRefill
		case coherence.MsgPIUpgrade:
			reply.Kind = kMockUpgrade
		case coherence.MsgPIWriteback:
			reply.Kind = kMockWBAck
		default:
			return true
		}
		d.eng.After(d.delay, reply)
	}
	return true
}
func (d *mockDown) ProtocolMiss(line uint64, dc sim.Desc) { d.eng.After(d.delay, dc) }
func (d *mockDown) IMiss(line uint64, dc sim.Desc)        { d.eng.After(d.delay, dc) }
func (d *mockDown) FireEffect(h uint32)                   { d.fired = append(d.fired, h) }

type alwaysSync struct{ ready bool }

func (a *alwaysSync) SyncPoll(tid int, tok uint64) bool { return a.ready }

type rig struct {
	eng  *sim.Engine
	p    *Pipeline
	down *mockDown
	syn  *alwaysSync
}

func newRig(appThreads int, smtp bool) *rig {
	down := &mockDown{auto: true, delay: 100}
	eng := newMockEngine(down)
	syn := &alwaysSync{ready: true}
	cfg := DefaultConfig(appThreads, smtp)
	p := New(cfg, eng, down, syn)
	down.p = p
	eng.AddClocked(p, 1, 0)
	return &rig{eng: eng, p: p, down: down, syn: syn}
}

func (r *rig) run(cycles int) {
	for i := 0; i < cycles; i++ {
		r.step()
	}
}

// step advances the rig one cycle and then checks the issue wakeup
// invariant: a queued uop whose sources are ready must sit in a queue whose
// wake bit is set, or the gated issue stage would never look at it.
func (r *rig) step() {
	r.eng.Step()
	p := r.p
	for _, q := range []struct {
		name string
		uops []*uop
		bit  uint8
	}{{"int", p.intQ, wakeInt}, {"fp", p.fpQ, wakeFP}} {
		if p.qWake&q.bit != 0 {
			continue
		}
		for _, u := range q.uops {
			if p.srcsReady(u) {
				panic(fmt.Sprintf("cycle %d: ready %v uop (seq %d) in the %s queue with its wake bit clear",
					r.eng.Now(), u.in.Op, u.seq, q.name))
			}
		}
	}
}

// warm pre-fills the instruction path (L1I and L2) for the given PCs so
// timing-sensitive tests are not dominated by the mock's cold I-miss delay.
func (r *rig) warm(ins []isa.Instr) {
	for i := range ins {
		r.p.l1i.Fill(ins[i].PC, cache.Shared)
		r.p.l2.Fill(ins[i].PC, cache.Shared)
	}
}

func (r *rig) runUntilDone(t *testing.T, max int) {
	t.Helper()
	for i := 0; i < max; i++ {
		if r.p.AppDone() {
			return
		}
		r.step()
	}
	t.Fatalf("pipeline did not drain in %d cycles (retired=%v)", max, r.p.Retired)
}

// prog builds a simple instruction sequence with sequential PCs.
func prog(base uint64, ops ...isa.Instr) []isa.Instr {
	for i := range ops {
		ops[i].PC = base + uint64(i)*4
	}
	return ops
}

func aluChain(n int) []isa.Instr {
	ins := make([]isa.Instr, n)
	for i := range ins {
		ins[i] = isa.Instr{Op: isa.OpIntALU, Dst: isa.Reg(1 + i%8), Src1: isa.Reg(1 + (i+1)%8)}
	}
	return ins
}

func TestRetiresALUProgram(t *testing.T) {
	r := newRig(1, false)
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, aluChain(100)...)})
	r.runUntilDone(t, 2000)
	if r.p.Retired[0] != 100 {
		t.Fatalf("retired %d, want 100", r.p.Retired[0])
	}
}

func TestIndependentALUThroughput(t *testing.T) {
	// 600 independent single-cycle ops on a 6-ALU, 8-wide machine should
	// retire at better than 2 IPC once warmed up.
	r := newRig(1, false)
	ins := make([]isa.Instr, 600)
	for i := range ins {
		ins[i] = isa.Instr{Op: isa.OpIntALU, Dst: isa.Reg(1 + i%30)}
	}
	p := prog(0x1000, ins...)
	r.warm(p)
	r.p.SetSource(0, &sliceSource{ins: p})
	r.runUntilDone(t, 5000)
	if r.p.Cycles > 300 {
		t.Fatalf("600 independent ops took %d cycles; want < 300", r.p.Cycles)
	}
}

func TestSerialDependenceLimitsIPC(t *testing.T) {
	r := newRig(1, false)
	// Strict chain: each op reads the previous result.
	ins := make([]isa.Instr, 200)
	for i := range ins {
		ins[i] = isa.Instr{Op: isa.OpIntALU, Dst: 1, Src1: 1}
	}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 5000)
	if r.p.Cycles < 200 {
		t.Fatalf("a serial chain of 200 cannot finish in %d cycles", r.p.Cycles)
	}
}

func TestBranchMispredictSquashAndRecover(t *testing.T) {
	r := newRig(1, false)
	ins := aluChain(10)
	// A cold taken branch: BTB miss forces a not-taken prediction, so this
	// mispredicts and fetch goes wrong-path until resolution.
	br := isa.Instr{Op: isa.OpBranch, Taken: true, Target: 0x2000}
	ins = append(ins, br)
	ins = append(ins, aluChain(10)...)
	p := prog(0x1000, ins...)
	// Fix the target to the instruction after the branch (taken branch to
	// the next PC keeps the stream linear for the source).
	p[10].Target = p[11].PC
	r.p.SetSource(0, &sliceSource{ins: p})
	r.runUntilDone(t, 3000)
	if r.p.Retired[0] != 21 {
		t.Fatalf("retired %d, want 21", r.p.Retired[0])
	}
	if r.p.BrMispredicted[0] != 1 {
		t.Fatalf("mispredicts=%d, want 1", r.p.BrMispredicted[0])
	}
	if r.p.SquashedUops[0] == 0 {
		t.Fatal("wrong-path instructions must have been squashed")
	}
	// Resource conservation: everything freed after drain.
	r.assertClean(t)
}

func (r *rig) assertClean(t *testing.T) {
	t.Helper()
	if got := r.p.intFree.available(); got != r.p.cfg.IntRegs-isa.NumLogicalInt*len(r.p.threads) {
		t.Fatalf("int free list leaked: %d available", got)
	}
	if got := r.p.fpFree.available(); got != r.p.cfg.FPRegs-isa.NumLogicalFP*len(r.p.threads) {
		t.Fatalf("fp free list leaked: %d available", got)
	}
	if r.p.brStackUsed != 0 {
		t.Fatalf("branch stack leaked: %d", r.p.brStackUsed)
	}
	if len(r.p.lsq) != 0 || len(r.p.intQ) != 0 || len(r.p.fpQ) != 0 {
		t.Fatal("issue queues not drained")
	}
	if r.p.mshr.InUse() != 0 || r.p.mshr.StoreSlotBusy() {
		t.Fatal("MSHRs leaked")
	}
}

func TestPredictedBranchNoSquash(t *testing.T) {
	r := newRig(1, false)
	// Train a not-taken branch (cold prediction is not-taken): no squash.
	var ins []isa.Instr
	for i := 0; i < 20; i++ {
		ins = append(ins, isa.Instr{Op: isa.OpIntALU, Dst: 1})
		ins = append(ins, isa.Instr{Op: isa.OpBranch, Taken: false})
	}
	r.p.SetSource(0, &sliceSource{ins: prog(0x3000, ins...)})
	r.runUntilDone(t, 3000)
	if r.p.BrMispredicted[0] != 0 {
		t.Fatalf("not-taken branches mispredicted %d times", r.p.BrMispredicted[0])
	}
}

func TestLoadHitTiming(t *testing.T) {
	r := newRig(1, false)
	addr := uint64(0x4000)
	r.p.l2.Fill(addr, cache.Exclusive)
	r.p.l1d.Fill(addr, cache.Shared)
	ins := []isa.Instr{{Op: isa.OpLoad, Dst: 1, Addr: addr, Size: 8}}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 500) // includes cold ITLB/DTLB walks
	if len(r.down.msgs) != 0 {
		t.Fatal("an L1 hit must not reach the memory controller")
	}
}

func TestLoadMissGoesThroughProtocol(t *testing.T) {
	r := newRig(1, false)
	addr := uint64(0x8000)
	ins := []isa.Instr{{Op: isa.OpLoad, Dst: 1, Addr: addr, Size: 8}}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 2000)
	if len(r.down.msgs) != 1 || coherence.MsgType(r.down.msgs[0].Type) != coherence.MsgPIRead {
		t.Fatalf("want one PIRead, got %+v", r.down.msgs)
	}
	if r.p.l2.Probe(addr) == nil || r.p.l1d.Probe(addr) == nil {
		t.Fatal("refill must fill L2 and L1D")
	}
	if r.p.L2Missed != 1 {
		t.Fatalf("L2 misses=%d, want 1", r.p.L2Missed)
	}
	r.assertClean(t)
}

// TestFPWakeWaitsForRefill: an FP op whose source is a load that misses
// the L2 must not be scanned for issue while the miss is outstanding — the
// FP queue's wake bit stays clear until the refill makes the value ready,
// and the op issues in the cycle the load completes.
func TestFPWakeWaitsForRefill(t *testing.T) {
	r := newRig(1, false)
	f1, f2 := isa.FirstFP, isa.FirstFP+1
	ins := prog(0x1000,
		isa.Instr{Op: isa.OpLoad, Dst: f1, Addr: 0x8000, Size: 8},
		isa.Instr{Op: isa.OpFPALU, Dst: f2, Src1: f1},
	)
	r.warm(ins)
	r.p.SetSource(0, &sliceSource{ins: ins})
	for i := 0; len(r.p.fpQ) == 0; i++ {
		if i == 500 {
			t.Fatal("FP op never reached the FP queue")
		}
		r.step()
	}
	src := r.p.fpQ[0].rdySrc1
	waited := 0
	for !r.p.ready[src] {
		if r.p.qWake&wakeFP != 0 {
			t.Fatalf("FP wake bit set %d cycles into the miss, before the refill", waited)
		}
		if waited == 1000 {
			t.Fatal("load never completed")
		}
		r.step()
		waited++
	}
	if r.p.L2Missed != 1 || waited < int(r.down.delay) {
		t.Fatalf("waited %d cycles on %d L2 misses; want one miss of >= %d cycles",
			waited, r.p.L2Missed, r.down.delay)
	}
	if len(r.p.fpQ) != 0 {
		t.Fatal("FP op did not issue in the cycle its source became ready")
	}
	r.runUntilDone(t, 1000)
	if r.p.Retired[0] != 2 {
		t.Fatalf("retired %d, want 2", r.p.Retired[0])
	}
}

func TestLoadMissMergesInMSHR(t *testing.T) {
	r := newRig(1, false)
	addr := uint64(0x8000)
	ins := []isa.Instr{
		{Op: isa.OpLoad, Dst: 1, Addr: addr, Size: 8},
		{Op: isa.OpLoad, Dst: 2, Addr: addr + 8, Size: 8}, // same 128B line
	}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 2000)
	if len(r.down.msgs) != 1 {
		t.Fatalf("merged misses must send one request, got %d", len(r.down.msgs))
	}
}

func TestStoreMissAcquiresOwnership(t *testing.T) {
	r := newRig(1, false)
	addr := uint64(0x9000)
	ins := []isa.Instr{{Op: isa.OpStore, Src1: 1, Addr: addr, Size: 8}}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 2000)
	if len(r.down.msgs) != 1 || coherence.MsgType(r.down.msgs[0].Type) != coherence.MsgPIWrite {
		t.Fatalf("want one PIWrite, got %+v", r.down.msgs)
	}
	if l := r.p.l2.Probe(addr); l == nil || l.State != cache.Modified {
		t.Fatal("stored line must be Modified in L2")
	}
	r.assertClean(t)
}

func TestStoreToSharedUpgrades(t *testing.T) {
	r := newRig(1, false)
	addr := uint64(0xA000)
	r.p.l2.Fill(addr, cache.Shared)
	ins := []isa.Instr{{Op: isa.OpStore, Src1: 1, Addr: addr, Size: 8}}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 2000)
	if len(r.down.msgs) != 1 || coherence.MsgType(r.down.msgs[0].Type) != coherence.MsgPIUpgrade {
		t.Fatalf("want one PIUpgrade, got %+v", r.down.msgs)
	}
	if l := r.p.l2.Probe(addr); l == nil || l.State != cache.Modified {
		t.Fatal("upgraded line must be Modified")
	}
}

func TestStoreHitWritesThroughToModified(t *testing.T) {
	r := newRig(1, false)
	addr := uint64(0xB000)
	r.p.l2.Fill(addr, cache.Exclusive)
	ins := []isa.Instr{{Op: isa.OpStore, Src1: 1, Addr: addr, Size: 8}}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 500)
	if len(r.down.msgs) != 0 {
		t.Fatal("store to an owned line must not leave the core")
	}
	if r.p.l2.Probe(addr).State != cache.Modified {
		t.Fatal("L2 line must become Modified")
	}
}

func TestPrefetchNonBlocking(t *testing.T) {
	r := newRig(1, false)
	ins := []isa.Instr{
		{Op: isa.OpPrefetch, Addr: 0xC000, Size: 8},
		{Op: isa.OpIntALU, Dst: 1},
	}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 2000)
	r.run(300) // the non-binding refill may land after the thread drains
	if r.p.Prefetches != 1 {
		t.Fatal("prefetch not counted")
	}
	if len(r.down.msgs) != 1 || coherence.MsgType(r.down.msgs[0].Type) != coherence.MsgPIRead {
		t.Fatalf("prefetch must send PIRead, got %+v", r.down.msgs)
	}
	if r.p.l2.Probe(0xC000) == nil {
		t.Fatal("prefetch refill must land in L2")
	}
}

func TestSyncWaitBlocksUntilReleased(t *testing.T) {
	r := newRig(1, false)
	r.syn.ready = false
	ins := []isa.Instr{
		{Op: isa.OpIntALU, Dst: 1},
		{Op: isa.OpSyncWait, SyncTok: 7},
		{Op: isa.OpIntALU, Dst: 2},
	}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.run(300)
	if r.p.Retired[0] != 1 {
		t.Fatalf("only the first op may retire while blocked; retired=%d", r.p.Retired[0])
	}
	r.syn.ready = true
	r.runUntilDone(t, 1000)
	if r.p.Retired[0] != 3 {
		t.Fatalf("all ops must retire after release; retired=%d", r.p.Retired[0])
	}
}

func TestL2EvictionWritesBackDirty(t *testing.T) {
	r := newRig(1, false)
	// Fill one L2 set (8 ways) with Modified lines, then force an eviction
	// via a load to a ninth line in the same set.
	sets := r.p.cfg.L2.Sets()
	stride := uint64(r.p.cfg.L2.LineSize * sets)
	for i := 0; i < 8; i++ {
		r.p.l2.Fill(uint64(i)*stride, cache.Modified)
	}
	ins := []isa.Instr{{Op: isa.OpLoad, Dst: 1, Addr: 8 * stride, Size: 8}}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	r.runUntilDone(t, 3000)
	var wb int
	for _, m := range r.down.msgs {
		if coherence.MsgType(m.Type) == coherence.MsgPIWriteback {
			wb++
		}
	}
	if wb != 1 {
		t.Fatalf("want 1 writeback, got %d", wb)
	}
}

func TestMultiThreadFairProgress(t *testing.T) {
	r := newRig(2, false)
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, aluChain(200)...)})
	r.p.SetSource(1, &sliceSource{ins: prog(0x9000, aluChain(200)...)})
	r.runUntilDone(t, 5000)
	if r.p.Retired[0] != 200 || r.p.Retired[1] != 200 {
		t.Fatalf("both threads must finish: %v", r.p.Retired)
	}
}

func TestReservedDecodeSlotKeepsProtocolFetchable(t *testing.T) {
	// On an SMTp core the application cannot occupy the last decode-queue
	// slot; verify via the capacity predicate.
	r := newRig(1, true)
	if r.p.qSpace(r.p.cfg.DecodeQ-1, r.p.cfg.DecodeQ, false) {
		t.Fatal("app thread must not take the reserved decode slot")
	}
	if !r.p.qSpace(r.p.cfg.DecodeQ-1, r.p.cfg.DecodeQ, true) {
		t.Fatal("protocol thread must be able to take the last slot")
	}
}

// protoTrace builds a synthetic handler trace ending in switch+ldctxt.
func protoTrace(base uint64, effect uint32, nALU int) []isa.Instr {
	var tr []isa.Instr
	for i := 0; i < nALU; i++ {
		tr = append(tr, isa.Instr{Op: isa.OpIntALU, Dst: isa.Reg(3 + i%4), Src1: 1})
	}
	tr = append(tr,
		isa.Instr{Op: isa.OpSendHdr, Src1: 4, Addr: 1 << 42, Size: 8},
		isa.Instr{Op: isa.OpSendAddr, Src1: 5, Addr: (1 << 42) + 8, Size: 8, Effect: effect},
		isa.Instr{Op: isa.OpSwitch, Dst: 1, Addr: 1 << 42, Size: 8},
		isa.Instr{Op: isa.OpLdctxt, Dst: 2, Addr: (1 << 42) + 8, Size: 8, Flags: isa.FlagLastInHandler},
	)
	for i := range tr {
		tr[i].PC = base + uint64(i)*4
	}
	tr[0].Flags |= isa.FlagHandlerStart
	return tr
}

func TestProtocolThreadExecutesHandler(t *testing.T) {
	r := newRig(1, true)
	r.p.SetSource(0, &sliceSource{ins: nil}) // idle app thread
	b := r.p.Backend()
	if !b.CanAccept() {
		t.Fatal("idle protocol thread must accept a handler")
	}
	first := protoTrace(1<<41, 1, 4)
	b.Start(first)
	r.run(400)
	if len(r.down.fired) != 1 || r.down.fired[0] != 1 {
		t.Fatalf("send effect must fire at graduation: %v", r.down.fired)
	}
	// The handler's switch now blocks: ldctxt not yet graduated, queue len 1.
	if r.p.proto.qlen != 1 {
		t.Fatalf("handler must park on switch until the next request; queue=%d", r.p.proto.qlen)
	}
	if !b.CanAccept() {
		t.Fatal("dispatch must accept one more (the pending request)")
	}
	// Dispatch the next handler: switch unblocks, first handler graduates.
	b.Start(protoTrace((1<<41)+0x400, 2, 2))
	r.run(400)
	if len(r.down.fired) != 2 {
		t.Fatalf("second handler's effect must fire: %v", r.down.fired)
	}
	if r.p.proto.qlen != 1 {
		t.Fatalf("first handler must have popped; queue=%d", r.p.proto.qlen)
	}
	// The finished trace's buffer moved into the slot it freed, which the
	// next dispatch writes into.
	if buf := b.TraceBuf(); len(buf) != 0 || cap(buf) != cap(first) || &buf[:1][0] != &first[0] {
		t.Fatal("the free dispatch slot does not hold the finished trace's buffer")
	}
	if r.p.Retired[r.p.ProtoTID()] == 0 {
		t.Fatal("protocol instructions must retire")
	}
	if r.p.proto.HandlersDispatched != 2 {
		t.Fatal("dispatch count wrong")
	}
}

func TestProtocolOccupancySampling(t *testing.T) {
	r := newRig(1, true)
	r.p.SetSource(0, &sliceSource{ins: nil})
	b := r.p.Backend()
	b.Start(protoTrace(1<<41, 0, 8))
	r.run(400) // cold protocol I-miss plus execution, then parked on switch
	if r.p.ProtoActiveCyc == 0 {
		t.Fatal("protocol thread must have been active")
	}
	if r.p.ProtoOccIntReg.Max() < 32 {
		t.Fatal("protocol thread holds at least its 32 mapped registers")
	}
	// Once parked on switch with nothing pending, occupancy stops rising.
	before := r.p.ProtoActiveCyc
	r.run(200)
	if r.p.ProtoActiveCyc != before {
		t.Fatalf("parked protocol thread must not count as active (%d -> %d)",
			before, r.p.ProtoActiveCyc)
	}
}

func TestProtocolDirectoryMissUsesProtocolBus(t *testing.T) {
	r := newRig(1, true)
	r.p.SetSource(0, &sliceSource{ins: nil})
	dirAddr := uint64(1<<40) + 0x100
	tr := []isa.Instr{
		{Op: isa.OpLoad, Dst: 3, Addr: dirAddr, Size: 8},
		{Op: isa.OpSwitch, Dst: 1, Addr: 1 << 42, Size: 8},
		{Op: isa.OpLdctxt, Dst: 2, Addr: (1 << 42) + 8, Size: 8, Flags: isa.FlagLastInHandler},
	}
	for i := range tr {
		tr[i].PC = (1 << 41) + uint64(i)*4
	}
	r.p.Backend().Start(tr)
	r.run(600)
	if len(r.down.msgs) != 0 {
		t.Fatal("protocol misses must bypass the local miss interface")
	}
	if r.p.l2.Probe(dirAddr) == nil && r.p.l2byp.Probe(dirAddr) == nil {
		t.Fatal("directory line must have been filled via the protocol bus")
	}
}

func TestBypassBufferOnConflict(t *testing.T) {
	r := newRig(1, true)
	addr := uint64(0x8000)
	// Outstanding app miss in the same L1D set as the protocol access.
	load := []isa.Instr{{PC: 0x1000, Op: isa.OpLoad, Dst: 1, Addr: addr, Size: 8}}
	r.warm(load)
	r.down.delay = 5000 // keep the app miss outstanding
	r.p.SetSource(0, &sliceSource{ins: load})
	r.run(200) // cold TLB walks delay the first access

	if r.p.mshr.InUse() != 1 {
		t.Fatalf("app miss must be outstanding, in use=%d", r.p.mshr.InUse())
	}
	r.down.delay = 50 // only the app refill stays slow
	// Protocol load mapping to the same L1D set (and same L2 set region).
	protoAddr := uint64(1<<40) | (addr & 0xFFFF)
	tr := []isa.Instr{
		{PC: 1 << 41, Op: isa.OpLoad, Dst: 3, Addr: protoAddr, Size: 8},
		{PC: (1 << 41) + 4, Op: isa.OpSwitch, Dst: 1, Addr: 1 << 42, Size: 8},
		{PC: (1 << 41) + 8, Op: isa.OpLdctxt, Dst: 2, Addr: (1 << 42) + 8, Size: 8, Flags: isa.FlagLastInHandler},
	}
	r.warm(tr)
	r.p.Backend().Start(tr)
	r.run(600)
	if r.p.BypassFills == 0 {
		t.Fatal("conflicting protocol fill must use the bypass buffer")
	}
	if r.p.l1d.Probe(protoAddr) != nil {
		t.Fatal("conflicting fill must not displace the L1D set")
	}
}

func TestAppDoneRequiresDrain(t *testing.T) {
	r := newRig(1, false)
	if r.p.AppDone() {
		t.Fatal("AppDone before sources are set must be false")
	}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, aluChain(5)...)})
	if r.p.AppDone() {
		t.Fatal("AppDone with unfetched work must be false")
	}
	r.runUntilDone(t, 500)
}

// TestLoadStateRejectsCorruptHandlerTrace: a queued handler trace longer
// than any handler can emit is a decode error, never an allocation sized
// from the saved length.
func TestLoadStateRejectsCorruptHandlerTrace(t *testing.T) {
	saveInstr, loadInstr := saveTestInstr, loadTestInstr
	r := newRig(1, true)
	tr := protoTrace(1<<41, 0, 3)
	r.p.Backend().Start(tr)
	e := snapshot.NewEncoder()
	r.p.SaveState(e, saveInstr)
	b := e.Finish()

	// The protocol section opens with: present, one queued handler, its
	// length, its fetch cursor.
	var pat []byte
	pat = append(pat, 1)
	for _, v := range []uint64{1, uint64(len(tr)), 0} {
		pat = binary.LittleEndian.AppendUint64(pat, v)
	}
	at := bytes.Index(b, pat)
	if at < 0 || bytes.Index(b[at+1:], pat) >= 0 {
		t.Fatal("cannot locate the handler-queue header in the saved state")
	}
	for _, n := range []uint64{isa.MaxTraceLen + 1, 1 << 40, 1 << 60} {
		bad := append([]byte(nil), b...)
		binary.LittleEndian.PutUint64(bad[at+9:], n)
		d, err := snapshot.NewDecoder(bad)
		if err != nil {
			t.Fatal(err)
		}
		newRig(1, true).p.LoadState(d, loadInstr)
		if d.Err() == nil {
			t.Fatalf("LoadState accepted a %d-instruction handler trace", n)
		}
	}

	// The uncorrupted state restores.
	d, err := snapshot.NewDecoder(b)
	if err != nil {
		t.Fatal(err)
	}
	newRig(1, true).p.LoadState(d, loadInstr)
	if err := d.Err(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// TestLoadStateRejectsCorruptStoreBufferAndWaiters patches a real saved
// core holding a buffered store and a load, each waiting on its own miss:
// a store-buffer entry naming a context the core lacks, or an MSHR waiter
// naming neither a queued load nor a buffered store, is a decode error.
func TestLoadStateRejectsCorruptStoreBufferAndWaiters(t *testing.T) {
	r := newRig(1, false)
	ins := []isa.Instr{
		{Op: isa.OpStore, Src1: 1, Addr: 0x9000, Size: 8},
		{Op: isa.OpLoad, Dst: 2, Addr: 0xA000, Size: 8},
	}
	r.p.SetSource(0, &sliceSource{ins: prog(0x1000, ins...)})
	var load *uop
	for i := 0; i < 2000; i++ {
		r.step()
		if len(r.p.lsq) == 1 && r.p.lsq[0].waitingMem && len(r.p.storeBuf) == 1 && r.p.storeBuf[0].pending {
			load = r.p.lsq[0]
			break
		}
	}
	if load == nil {
		t.Fatal("never had a buffered store and a load both waiting on misses")
	}
	store := r.p.storeBuf[0]
	e := snapshot.NewEncoder()
	r.p.SaveState(e, saveTestInstr)
	b := e.Finish()
	u64s := func(vs ...uint64) []byte {
		var p []byte
		for _, v := range vs {
			p = binary.LittleEndian.AppendUint64(p, v)
		}
		return p
	}
	// unique locates pat in b at or after from, failing unless it occurs
	// exactly once there.
	unique := func(pat []byte, from int) int {
		at := bytes.Index(b[from:], pat)
		if at < 0 || bytes.Index(b[from+at+1:], pat) >= 0 {
			t.Fatalf("cannot locate %x in the saved state", pat)
		}
		return from + at
	}
	// A store-buffer entry is its sequence number, address and context.
	ctx := unique(u64s(store.seq, store.addr, uint64(store.tid)), 0) + 16
	// The load's MSHR entry lists its one waiter after the file's mark.
	waiter := unique(u64s(1, load.seq), unique([]byte("\x04mshr"), 0)) + 8
	for _, tc := range []struct {
		name string
		off  int
		v    uint64
	}{
		{"store-buffer context past the last", ctx, 1},
		{"negative store-buffer context", ctx, ^uint64(0)},
		{"waiter naming nothing", waiter, load.seq + 1000},
	} {
		bad := bytes.Clone(b)
		binary.LittleEndian.PutUint64(bad[tc.off:], tc.v)
		d, err := snapshot.NewDecoder(bad)
		if err != nil {
			t.Fatal(err)
		}
		newRig(1, false).p.LoadState(d, loadTestInstr)
		if d.Err() == nil {
			t.Errorf("%s: LoadState accepted the corrupt state", tc.name)
		}
	}

	// The uncorrupted state restores.
	d, err := snapshot.NewDecoder(b)
	if err != nil {
		t.Fatal(err)
	}
	newRig(1, false).p.LoadState(d, loadTestInstr)
	if err := d.Err(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// TestCommittedStoresAllocateNothing: a committed store lives on as a
// store-buffer value, so a steady stream of store hits retires and drains
// without allocating.
func TestCommittedStoresAllocateNothing(t *testing.T) {
	r := newRig(1, false)
	data := uint64(0x10000)
	ins := prog(0x1000,
		isa.Instr{Op: isa.OpStore, Src1: 1, Addr: data, Size: 8},
		isa.Instr{Op: isa.OpIntALU, Dst: 2, Src1: 3},
		isa.Instr{Op: isa.OpStore, Src1: 2, Addr: data + 8, Size: 8},
		isa.Instr{Op: isa.OpIntALU, Dst: 3, Src1: 1},
	)
	r.warm(ins)
	r.p.l2.Fill(data, cache.Exclusive)
	r.p.l1d.Fill(data, cache.Exclusive)
	r.p.SetSource(0, &loopSource{ins: ins})
	r.run(5000) // TLBs, predictor, queues and pools warm
	retired := r.p.Retired[0]
	if allocs := testing.AllocsPerRun(1000, r.eng.Step); allocs != 0 {
		t.Fatalf("%.2f allocations per cycle of committed stores", allocs)
	}
	if r.p.Retired[0]-retired < 1000 {
		t.Fatalf("only %d instructions retired in 1000 cycles", r.p.Retired[0]-retired)
	}
}
