package pipeline

import (
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// protoState is the SMTp protocol-thread machinery: the queue of dispatched
// handler traces (current plus at most one look-ahead), the PPCV fetch gate,
// and Look-Ahead Scheduling.
type protoState struct {
	p *Pipeline

	// queue[:qlen] holds the dispatched handlers in place: queue[0] is the
	// executing handler; queue[1], when present, is the next dispatched
	// handler (its header is what the executing handler's switch
	// instruction loads). A fixed two-slot array (the dispatch unit depth)
	// avoids the per-handler allocation a pointer queue would make. Each
	// slot owns its trace buffer: the memory controller writes the next
	// handler into the free slot's buffer (ProtoBackend.TraceBuf).
	queue [2]handlerRun
	qlen  int

	// Paper state mirrors (ldctxt_id and the Look Ahead bit). With the
	// oracle wrong-path model the look-ahead squash-recovery case cannot
	// trigger (fetch stops at a detected misprediction before crossing into
	// the next handler), but the state is tracked for fidelity and stats.
	lookAhead bool
	ldctxtID  uint64

	// ctl settles the lazily-ticked memory controller that dispatches into
	// this thread (nil when none is bound, e.g. in unit tests).
	ctl *sim.TickHandle

	HandlersDispatched uint64
	LookAheadStarts    uint64
	SwitchStallCycles  uint64
}

type handlerRun struct {
	trace    []isa.Instr
	fetchIdx int
}

func newProtoState(p *Pipeline) *protoState {
	return &protoState{p: p}
}

func (ps *protoState) fetched(r *handlerRun) bool { return r.fetchIdx >= len(r.trace) }

// peek returns the next protocol instruction to fetch, or nil when PPCV is
// clear (no handler ready to fetch).
func (ps *protoState) peek() *isa.Instr {
	if ps.qlen == 0 {
		return nil
	}
	r0 := &ps.queue[0]
	if !ps.fetched(r0) {
		return &r0.trace[r0.fetchIdx]
	}
	// r0 fully fetched: under LAS the look-ahead handler's PC has already
	// been handed out; without LAS fetch waits for r0's ldctxt to graduate
	// (which pops r0).
	if ps.p.cfg.LAS && ps.qlen > 1 {
		r1 := &ps.queue[1]
		if !ps.fetched(r1) {
			return &r1.trace[r1.fetchIdx]
		}
	}
	return nil
}

// advance consumes the peeked instruction.
func (ps *protoState) advance() {
	r := &ps.queue[0]
	if ps.fetched(r) {
		r = &ps.queue[1]
		if !ps.lookAhead {
			// Starting to fetch the look-ahead handler: set the Look Ahead
			// bit and remember the previous handler's ldctxt (sequence
			// tracking for squash recovery).
			ps.lookAhead = true
			ps.ldctxtID = ps.p.seq
			ps.LookAheadStarts++
		}
	}
	r.fetchIdx++
}

// switchReady reports whether the executing handler's switch instruction
// can complete: the next request must have been dispatched (its header is
// what switch loads). The memory controller unblocks it by dispatching.
func (ps *protoState) switchReady() bool {
	if ps.qlen > 1 {
		return true
	}
	ps.SwitchStallCycles++
	return false
}

// handlerDone runs when a handler's trailing ldctxt graduates: the handler
// is complete and the dispatch slot frees.
func (ps *protoState) handlerDone() {
	if ps.qlen == 0 {
		panic("pipeline: ldctxt graduated with no handler in flight")
	}
	// Freeing a slot of a full dispatch unit flips CanAccept, from which
	// the controller's deferred idle ticks replay their fairness toggles:
	// settle them first.
	if ps.ctl != nil {
		ps.ctl.Settle()
	}
	// The trailing ldctxt graduates in program order, so every uop of the
	// handler has retired (each holding its Instr by value): the finished
	// trace's buffer moves into the slot this frees, for the next dispatch.
	done := ps.queue[0].trace
	ps.queue[0] = ps.queue[1]
	ps.queue[1] = handlerRun{trace: done[:0]}
	ps.qlen--
	ps.lookAhead = false
}

// active reports whether the protocol thread is doing useful work this
// cycle (used for the Table 7 occupancy statistic). A thread whose only
// remaining instructions are a switch/ldctxt pair blocked waiting for the
// next request is idle, exactly as in the paper's accounting.
func (ps *protoState) active() bool {
	t := ps.p.threads[ps.p.ProtoTID()]
	if ps.qlen == 0 {
		return false
	}
	if t.robCount == 0 {
		// Something is dispatched but not yet in the ROB: fetching counts.
		return ps.peek() != nil
	}
	if t.robCount <= 2 && ps.qlen == 1 {
		if head := t.robPeek(); head != nil && head.in.Op == isa.OpSwitch && ps.fetched(&ps.queue[0]) {
			return false // parked on switch with no pending request
		}
	}
	return true
}

// ProtoQuiesced reports whether the protocol thread has no unfinished work:
// at most the final handler remains, fully fetched, with only its blocked
// switch/ldctxt pair left in the active list (the normal idle posture).
// Used by the machine's termination check — effects of dispatched handlers
// fire at graduation, so a merely-dispatched handler is not yet done.
func (p *Pipeline) ProtoQuiesced() bool {
	if p.proto == nil {
		return true
	}
	ps := p.proto
	t := p.threads[p.ProtoTID()]
	switch ps.qlen {
	case 0:
		return t.robCount == 0 && t.frontCount == 0
	case 1:
		if !ps.fetched(&ps.queue[0]) {
			return false
		}
		if t.robCount > 2 || t.frontCount > 2 {
			return false
		}
		head := t.robPeek()
		return head == nil || head.in.Op == isa.OpSwitch
	default:
		return false
	}
}

// ProtoBackend adapts the pipeline's protocol thread to the memory
// controller's Backend interface.
type ProtoBackend struct {
	p *Pipeline
}

// CanAccept implements memctrl.Backend: the dispatch unit holds the
// executing handler plus one pending request.
func (b *ProtoBackend) CanAccept() bool {
	return b.p.proto.qlen < 2
}

// BindController installs the lazy-tick handle of the memory controller
// that dispatches into this backend, so the protocol thread settles the
// controller before freeing a dispatch slot (see handlerDone).
func (b *ProtoBackend) BindController(h *sim.TickHandle) { b.p.proto.ctl = h }

// TraceBuf implements memctrl.Backend: the free dispatch slot's buffer,
// emptied.
func (b *ProtoBackend) TraceBuf() []isa.Instr {
	ps := b.p.proto
	return ps.queue[ps.qlen].trace[:0]
}

// Start implements memctrl.Backend.
func (b *ProtoBackend) Start(trace []isa.Instr) {
	// Dispatch can raise PPCV and unblock a parked switch: external input.
	// Settle before growing the queue — Skipped's switch-stall sampling
	// reads the pre-dispatch queue depth.
	b.p.extInput()
	ps := b.p.proto
	if ps.qlen >= 2 {
		panic("pipeline: protocol dispatch overflow")
	}
	ps.queue[ps.qlen] = handlerRun{trace: trace}
	ps.qlen++
	ps.HandlersDispatched++
}

// sampleStats gathers the per-cycle statistics used by the paper's tables:
// memory-stall cycles per application thread (graduation blocked with a
// memory operation at the head of the active list) and the protocol
// thread's resource occupancy peaks. n is the number of consecutive cycles
// the sample covers (1 on a real tick; the elided-window length when the
// kernel skips, during which all the sampled state is frozen).
func (p *Pipeline) sampleStats(now sim.Cycle, n uint64) {
	for i := 0; i < p.cfg.AppThreads; i++ {
		t := p.threads[i]
		if u := t.robPeek(); u != nil && u.in.Op.IsMem() && u.stage != sDone {
			// Head is an incomplete memory operation: a memory stall cycle
			// unless it is merely waiting for a store-buffer slot.
			if u.in.Op != isa.OpStore || u.executed {
				if !(u.in.Op == isa.OpStore && p.qSpace(len(p.storeBuf), p.cfg.StoreBuffer, false)) {
					p.MemStallCycles[i] += n
				}
			}
		}
	}
	if p.proto == nil {
		return
	}
	if p.proto.active() {
		p.ProtoActiveCyc += n
		pt := p.threads[p.ProtoTID()]
		// Branch-stack entries held by the protocol thread.
		brs := 0
		if p.ckptsArr != nil {
			for i := range p.ckptsArr {
				if p.ckptsArr[i].valid && p.ckptsArr[i].tid == pt.id {
					brs++
				}
			}
		}
		p.ProtoOccBrStack.SampleN(brs, n)
		// Integer registers: the 32 architecturally mapped plus in-flight
		// renames not yet released.
		regs := 32
		for i := 0; i < pt.robCount; i++ {
			u := pt.rob[(pt.robHead+i)%len(pt.rob)]
			if u != nil && u.physDst >= 0 && !u.in.Dst.IsFP() {
				regs++
			}
		}
		p.ProtoOccIntReg.SampleN(regs, n)
		iq := 0
		for _, u := range p.intQ {
			if u.tid == pt.id {
				iq++
			}
		}
		p.ProtoOccIQ.SampleN(iq, n)
		lsq := 0
		for _, u := range p.lsq {
			if u.tid == pt.id {
				lsq++
			}
		}
		p.ProtoOccLSQ.SampleN(lsq, n)
	}
}
