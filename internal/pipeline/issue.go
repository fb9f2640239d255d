package pipeline

import (
	"fmt"

	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// issue selects ready instructions from the integer and FP queues (bounded
// by functional units) and from the load/store queue (bounded by the single
// address-calculation ALU), oldest first. A queue is scanned only when its
// wake bit says it may hold a ready uop (see markReady).
func (p *Pipeline) issue(now sim.Cycle) {
	if p.qWake&wakeInt != 0 {
		p.issueQueue(&p.intQ, wakeInt, p.cfg.IntALUs, now)
	}
	if p.qWake&wakeFP != 0 {
		p.issueQueue(&p.fpQ, wakeFP, p.cfg.FPUs, now)
	}
	p.issueMem(now)
}

// sortBySeq is an insertion sort (the lists are tiny and nearly sorted, and
// this avoids reflection in the per-cycle path).
func sortBySeq(us []*uop) {
	for i := 1; i < len(us); i++ {
		u := us[i]
		j := i - 1
		for j >= 0 && us[j].seq > u.seq {
			us[j+1] = us[j]
			j--
		}
		us[j+1] = u
	}
}

// issueQueue issues up to units of the queue's ready uops, oldest first.
// The queue never holds squashed uops: squashAfter removes them.
func (p *Pipeline) issueQueue(q *[]*uop, bit uint8, units int, now sim.Cycle) {
	// Collect ready candidates (scratch buffer reused across cycles).
	ready := p.scratch[:0]
	for _, u := range *q {
		if p.srcsReady(u) {
			ready = append(ready, u)
		}
	}
	if len(ready) <= units {
		// Every ready uop issues now; only a later markReady can make
		// another one ready.
		p.qWake &^= bit
	}
	// Oldest-first selection.
	sortBySeq(ready)
	p.scratch = ready[:0]
	issued := 0
	for _, u := range ready {
		if issued == units {
			break
		}
		p.active = true
		u.issued = true
		u.inIQ = false
		*q = removeUop(*q, u)
		p.noteIssued(p.threads[u.tid], u)
		// Two operand-read stages then the functional unit.
		lat := u.in.Op.Latency()
		if p.cfg.SlowBitOps && u.in.Op == isa.OpBitOp {
			lat += 3 // emulate popcount/ctz with a short shift-mask sequence
		}
		u.doneAt = now + 2 + sim.Cycle(lat)
		p.inflight = append(p.inflight, u)
		issued++
	}
}

// issueMem issues at most one memory operation per cycle (the dedicated
// address-calculation ALU). The load/store issue logic preserves program
// order among memory operations within a thread (R10000 behaviour, §3):
// only a thread's oldest unissued memory operation is a candidate.
func (p *Pipeline) issueMem(now sim.Cycle) {
	if len(p.lsq) == 0 {
		return
	}
	cands := p.memScratch[:0]
	for i := range p.seen {
		p.seen[i] = false
	}
	seen := p.seen
	// The LSQ is kept in age order per thread by construction (appends).
	for _, u := range p.lsq {
		if seen[u.tid] {
			continue
		}
		if u.issued {
			// Already issued ops no longer block issue of younger ops, but
			// ordering requires finding the next unissued one after them.
			continue
		}
		seen[u.tid] = true
		if u.in.Op.NonSpeculative() {
			// switch/ldctxt/send execute at graduation, not here. They
			// block younger memory ops of the same thread (mark seen).
			continue
		}
		if !p.srcsReady(u) {
			continue
		}
		cands = append(cands, u)
	}
	sortBySeq(cands)
	p.memScratch = cands[:0]
	if len(cands) > 0 {
		// Even a failed attempt touches TLBs, caches and MSHR counters.
		p.active = true
	}
	// One AGU: the oldest candidate that can make progress issues. An op
	// blocked on a structural resource (MSHRs exhausted) must not starve
	// younger ops from other threads — in particular the protocol thread's
	// accesses, which hold the reserved MSHR entry (§2.2).
	for _, u := range cands {
		if p.execMem(u, now) {
			return
		}
	}
}

// seen-ordering note: seen[tid] is set on the first unissued op per thread
// regardless of readiness, enforcing per-thread program order.

// writeback completes executed instructions whose latency has elapsed:
// results become visible, dependents wake, branches resolve.
func (p *Pipeline) writeback(now sim.Cycle) {
	kept := p.inflight[:0]
	for _, u := range p.inflight {
		if u.squashed {
			p.active = true // dropping a squashed op shrinks inflight
			p.freeUop(u)    // its last reference was this list
			continue
		}
		if u.doneAt > now {
			kept = append(kept, u)
			continue
		}
		p.active = true
		p.complete(u, now)
	}
	p.inflight = kept
}

// complete makes a result visible and resolves branches.
func (p *Pipeline) complete(u *uop, now sim.Cycle) {
	u.executed = true
	u.stage = sDone
	if u.rdyDst >= 0 {
		p.markReady(u.rdyDst)
	}
	if u.in.Op == isa.OpBranch {
		p.resolveBranch(u, now)
	}
}

// resolveBranch trains the predictor and recovers from mispredictions.
func (p *Pipeline) resolveBranch(u *uop, now sim.Cycle) {
	t := p.threads[u.tid]
	p.BrResolved[u.tid]++
	p.pred.Update(u.tid, u.pred, u.in.Taken)
	if u.in.Taken {
		p.btb.Insert(u.in.PC, u.in.Target)
	}
	if u.mispred {
		p.BrMispredicted[u.tid]++
		p.squashAfter(t, u)
		p.ckptRestore(t, u.brCkpt)
		t.wrongPath = false
		t.fetchStallUntil = now + 2 // redirect penalty
	}
	p.ckptFree(u.brCkpt)
	u.brCkpt = -1
}

// squashAfter removes every instruction younger than u in u's thread.
// Fetch stops supplying real instructions the moment a misprediction is
// detected, so every squashed instruction is a wrong-path dummy: an
// integer ALU op that can hold an integer register, an integer-queue slot
// and an in-flight execution, and never memory-system state.
func (p *Pipeline) squashAfter(t *thread, u *uop) {
	n := 0
	for t.robTail() != nil && t.robTail() != u {
		v := t.robTailPop()
		p.squash(t, v)
		n++
		if v.physDst >= 0 {
			// Restore happens via the checkpoint; the speculative register
			// returns to the free list.
			p.intFree.release(v.physDst)
		}
		if v.inIQ {
			p.intQ = removeUop(p.intQ, v)
			v.inIQ = false
		}
		// An op mid-execution stays on the in-flight list until writeback
		// drops it; nothing else references a squashed op.
		if !(v.issued && v.stage != sDone) {
			p.freeUop(v)
		}
	}
	// Instructions younger than the branch that are still in the front-end
	// queues were never pushed onto the active list; purge them too.
	for _, q := range []*[]*uop{&p.decodeQ, &p.renameQ} {
		kept := (*q)[:0]
		for _, v := range *q {
			if v.tid == t.id && v.seq > u.seq {
				p.squash(t, v)
				n++
				p.freeUop(v) // never issued, referenced only by this queue
				continue
			}
			kept = append(kept, v)
		}
		*q = kept
	}
	if n > 0 {
		p.SquashCycles[t.id]++
	}
}

// squash marks v squashed, counts it, and takes it out of the thread's
// ICOUNT (counted from fetch until issue). Only a wrong-path dummy may be
// squashed: anything else could hold state squashAfter does not release.
func (p *Pipeline) squash(t *thread, v *uop) {
	if v.in.Flags&isa.FlagWrongPath == 0 {
		panic(fmt.Sprintf("pipeline: squashing correct-path %v (seq %d)", v.in.Op, v.seq))
	}
	v.squashed = true
	p.SquashedUops[t.id]++
	if v.counted {
		v.counted = false
		t.frontCount--
	}
}
