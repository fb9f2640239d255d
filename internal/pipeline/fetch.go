package pipeline

import (
	"smtpsim/internal/cache"
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// qSpace reports whether a queue with `used` of `cap` slots can take another
// entry for the given thread: application threads may not take the last
// (protocol-reserved) slot on an SMTp core (§2.2).
func (p *Pipeline) qSpace(used, capacity int, isProtocol bool) bool {
	if p.cfg.HasProtocol && !isProtocol {
		return used < capacity-1
	}
	return used < capacity
}

// fetchable reports whether a thread could supply an instruction this cycle.
func (p *Pipeline) fetchable(t *thread, now sim.Cycle) bool {
	if t.fetchStallUntil > now || t.fetchBlockedICM || t.fetchBlockedSyn {
		return false
	}
	if t.wrongPath {
		return true
	}
	if t.isProtocol {
		return p.proto.peek() != nil
	}
	return t.source != nil && t.source.Peek() != nil
}

// nextFetch returns the instruction the thread would fetch next (wrong-path
// threads synthesize resource-consuming dummies).
func (p *Pipeline) nextFetch(t *thread) isa.Instr {
	if t.wrongPath {
		t.wrongSeq++
		in := isa.Instr{
			PC:    t.wrongPC,
			Op:    isa.OpIntALU,
			Dst:   isa.Reg(1 + t.wrongSeq%30),
			Src1:  isa.Reg(1 + (t.wrongSeq+7)%30),
			Flags: isa.FlagWrongPath,
		}
		t.wrongPC += 4
		return in
	}
	if t.isProtocol {
		return *p.proto.peek()
	}
	return *t.source.Peek()
}

func (p *Pipeline) consumeFetch(t *thread) {
	if t.wrongPath {
		return
	}
	if t.isProtocol {
		p.proto.advance()
		return
	}
	t.source.Advance()
}

// fetch implements the ICOUNT.2.8 policy: each cycle up to eight
// instructions come from the two fetchable threads with the fewest
// instructions in the front end; the first thread supplies instructions
// until a predicted-taken branch redirects fetch, at which point the second
// thread takes over.
func (p *Pipeline) fetch(now sim.Cycle) {
	cands := p.fetchCands[:0]
	for _, t := range p.threads {
		if p.fetchable(t, now) {
			cands = append(cands, t)
		}
	}
	p.fetchCands = cands[:0]
	if len(cands) == 0 {
		return
	}
	sortByICount(cands)
	// Up to FetchThreads threads may supply instructions; a candidate that
	// cannot place a single instruction (its section of the decode queue is
	// full, or its I-fetch just missed) does not consume a slot — otherwise
	// two stalled application threads could starve the protocol thread out
	// of fetch forever despite its reserved decode-queue entry.
	budget := p.cfg.FetchWidth
	threadsUsed := 0
	for _, t := range cands {
		if threadsUsed == p.cfg.FetchThreads || budget == 0 {
			break
		}
		fetched := 0
		for budget > 0 {
			if !p.fetchable(t, now) {
				break
			}
			in := p.nextFetch(t)
			if !t.wrongPath && !p.itlbCheck(t, in.PC, now) {
				p.active = true // TLB fill + page-walk stall armed
				break           // ITLB miss: page walk in progress
			}
			if !t.wrongPath && !p.ifetchHit(t, in.PC, now) {
				break // I-cache miss: fill started, thread blocked
			}
			if !p.qSpace(len(p.decodeQ), p.cfg.DecodeQ, t.isProtocol) {
				break
			}
			p.active = true
			p.consumeFetch(t)
			p.seq++
			u := p.newUop()
			u.in, u.tid, u.seq, u.brCkpt, u.counted = in, t.id, p.seq, -1, true
			u.wrongPath = in.Flags&isa.FlagWrongPath != 0
			stop := false
			if in.Op == isa.OpBranch && !u.wrongPath {
				stop = p.fetchBranch(t, u)
			}
			p.decodeQ = append(p.decodeQ, u)
			t.frontCount++
			budget--
			fetched++
			if in.Op == isa.OpSyncWait {
				// Do not run ahead of a synchronization point.
				t.fetchBlockedSyn = true
				t.synPolled = false
				stop = true
			}
			if t.isProtocol && in.Flags&isa.FlagLastInHandler != 0 {
				// The quick-compare logic spotted the ldctxt: PPCV cleared
				// (proto.advance handled the bookkeeping); stop the group.
				stop = true
			}
			if stop {
				break
			}
		}
		if fetched > 0 {
			threadsUsed++
		}
	}
}

// sortByICount stable-insertion-sorts fetch candidates by front-end
// instruction count (at most a handful of contexts). Shared by fetch and
// Skipped so elided cycles visit candidates in the same order real ones
// would.
func sortByICount(cands []*thread) {
	for i := 1; i < len(cands); i++ {
		t := cands[i]
		j := i - 1
		for j >= 0 && cands[j].frontCount > t.frontCount {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = t
	}
}

// fetchBranch predicts a fetched branch, arming wrong-path mode on a
// misprediction. Returns true when fetch must redirect (predicted taken),
// ending this thread's fetch group.
func (p *Pipeline) fetchBranch(t *thread, u *uop) bool {
	pr := p.pred.Predict(t.id, u.in.PC)
	target, btbHit := p.btb.Lookup(u.in.PC)
	// A direction prediction of taken without a BTB target cannot redirect
	// fetch; it behaves as a not-taken prediction.
	predTaken := pr.Taken && btbHit
	u.pred = pr
	u.predTaken = predTaken
	u.mispred = predTaken != u.in.Taken || (predTaken && target != u.in.Target)
	if u.mispred {
		t.wrongPath = true
		if predTaken {
			t.wrongPC = target
		} else {
			t.wrongPC = u.in.FallThrough()
		}
	}
	return predTaken
}

// ifetchHit probes the L1 I-cache (and, for the protocol thread, the
// I-bypass buffer) for the fetch PC, starting a fill and blocking the
// thread on a miss.
func (p *Pipeline) ifetchHit(t *thread, pc uint64, now sim.Cycle) bool {
	line := p.l1i.LineAddr(pc)
	if t.streamLine != 0 && t.streamLine == line {
		// Fill forwarding: the thread streams instructions from its last
		// fill's line buffer even if concurrent fills displaced the line —
		// this is what guarantees fetch progress when several threads'
		// code conflicts in one set.
		return true
	}
	// Off the stream buffer every path below touches cache LRU/counters or
	// starts a fill: not skippable.
	p.active = true
	if p.l1i.Access(pc) != nil {
		t.streamLine = line
		return true
	}
	if t.isProtocol && (p.cfg.PerfectProtoCaches || p.ibyp.Access(pc) != nil) {
		t.streamLine = line
		return true
	}
	t.fetchBlockedICM = true
	// L2 (and its bypass buffer) backs the I-cache.
	if p.l2.Access(pc) != nil || (t.isProtocol && p.l2byp.Access(pc) != nil) {
		p.eng.After(sim.Cycle(p.cfg.L2HitCyc), p.iFillDesc(t.id, line))
		return false
	}
	l2line := p.l2.LineAddr(pc)
	if t.isProtocol {
		p.down.ProtocolMiss(l2line, p.iFillL2Desc(t.id, line, l2line))
	} else {
		p.down.IMiss(l2line, p.iFillL2Desc(t.id, line, l2line))
	}
	return false
}

// iFill completes an instruction-cache fill for a thread's blocked fetch:
// the line lands in the L1I (or, for a conflicting protocol fill, the
// I-bypass buffer) and the thread resumes streaming from it.
func (p *Pipeline) iFill(tid int, line uint64) {
	t := p.threads[tid]
	if t.isProtocol && p.protoIConflict(line) {
		p.ibyp.Fill(line, cache.Shared)
		p.BypassFills++
	} else {
		p.l1i.Fill(line, cache.Shared)
	}
	t.streamLine = line
	t.fetchBlockedICM = false
}

// iFillL2 completes an instruction fill that also missed the L2: install
// the L2 line first, then the L1I subline.
func (p *Pipeline) iFillL2(tid int, line, l2line uint64) {
	t := p.threads[tid]
	if t.isProtocol && p.protoL2Conflict(l2line) {
		p.fillL2Bypass(l2line, cache.Shared)
	} else {
		p.evictAwareL2Fill(l2line, cache.Shared)
	}
	p.iFill(tid, line)
}
