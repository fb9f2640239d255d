package pipeline

import (
	"smtpsim/internal/bpred"
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// checkpoint is one branch-stack entry: a register-map snapshot plus RAS
// repair state (paper Table 2: 32 entries, 1 reserved for the protocol
// thread on SMTp).
type checkpoint struct {
	valid bool
	tid   int
	maps  [isa.NumLogical + 1]int16
	ras   bpred.RASCheckpoint
}

// ckpts is allocated lazily on first branch rename.
func (p *Pipeline) ckptAlloc(t *thread) int {
	if p.ckptsArr == nil {
		p.ckptsArr = make([]checkpoint, p.cfg.BranchStack)
	}
	if !p.qSpace(p.brStackUsed, p.cfg.BranchStack, t.isProtocol) {
		return -1
	}
	for i := range p.ckptsArr {
		if !p.ckptsArr[i].valid {
			c := &p.ckptsArr[i]
			c.valid = true
			c.tid = t.id
			c.maps = t.mapTable
			c.ras = t.ras.Checkpoint()
			p.brStackUsed++
			return i
		}
	}
	return -1
}

func (p *Pipeline) ckptFree(idx int) {
	if idx < 0 || !p.ckptsArr[idx].valid {
		return
	}
	p.ckptsArr[idx].valid = false
	p.brStackUsed--
}

func (p *Pipeline) ckptRestore(t *thread, idx int) {
	c := &p.ckptsArr[idx]
	t.mapTable = c.maps
	t.ras.Restore(c.ras)
}

func removeUop(q []*uop, u *uop) []*uop {
	for i := range q {
		if q[i] == u {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// decode moves up to the front-end width of instructions from the decode
// queue to the rename queue. The scheduler visits the application and
// protocol sections with cyclically alternating priority (§2.2).
func (p *Pipeline) decode(now sim.Cycle) {
	if len(p.decodeQ) == 0 {
		return
	}
	width := p.cfg.FetchWidth
	protoTID := p.ProtoTID()
	protoFirst := p.Cycles%2 == 1
	// Transferred entries are nil-marked and compacted once at the end, so
	// a wide transfer costs one pass instead of a memmove per instruction.
	removed := false
	for pass := 0; pass < 2 && width > 0; pass++ {
		wantProto := (pass == 0) == protoFirst
		for i := 0; i < len(p.decodeQ) && width > 0; i++ {
			u := p.decodeQ[i]
			if u == nil || (u.tid == protoTID) != wantProto {
				continue
			}
			if !p.qSpace(len(p.renameQ), p.cfg.RenameQ, u.tid == protoTID) {
				break // in-order within the section
			}
			p.active = true
			p.decodeQ[i] = nil
			removed = true
			u.stage = sDecoded
			p.renameQ = append(p.renameQ, u)
			width--
		}
	}
	if removed {
		p.decodeQ = compactUops(p.decodeQ)
	}
}

// compactUops removes nil-marked entries in place, preserving order.
func compactUops(q []*uop) []*uop {
	kept := q[:0]
	for _, u := range q {
		if u != nil {
			kept = append(kept, u)
		}
	}
	return kept
}

// rename performs register renaming and inserts instructions into the
// active list and the issue/load-store queues, with the same alternating
// section priority as decode.
func (p *Pipeline) rename(now sim.Cycle) {
	if len(p.renameQ) == 0 {
		return
	}
	width := p.cfg.FetchWidth
	protoTID := p.ProtoTID()
	protoFirst := p.Cycles%2 == 0
	removed := false
	for pass := 0; pass < 2 && width > 0; pass++ {
		wantProto := (pass == 0) == protoFirst
		for i := 0; i < len(p.renameQ) && width > 0; i++ {
			u := p.renameQ[i]
			if u == nil || (u.tid == protoTID) != wantProto {
				continue
			}
			if !p.tryRename(u, now) {
				break // in-order within the section
			}
			p.active = true
			p.renameQ[i] = nil
			removed = true
			width--
		}
	}
	if removed {
		p.renameQ = compactUops(p.renameQ)
	}
}

// tryRename checks every resource the instruction needs and claims them
// atomically; returns false (claiming nothing) if any is unavailable.
func (p *Pipeline) tryRename(u *uop, now sim.Cycle) bool {
	t := p.threads[u.tid]
	if t.robFull() {
		return false
	}
	needsInt := u.in.Dst.Valid() && !u.in.Dst.IsFP()
	needsFP := u.in.Dst.Valid() && u.in.Dst.IsFP()
	if needsInt && p.intFree.available() <= p.intReserveFor(t) {
		return false
	}
	if needsFP && p.fpFree.available() == 0 {
		return false
	}
	isBranch := u.in.Op == isa.OpBranch
	if isBranch && !p.qSpace(p.brStackUsed, p.cfg.BranchStack, t.isProtocol) {
		return false
	}
	if u.in.Op.IsMem() {
		if !p.qSpace(len(p.lsq), p.cfg.LSQ, t.isProtocol) {
			return false
		}
	} else if u.in.Op.IsFPOp() {
		if len(p.fpQ) >= p.cfg.FPQ {
			return false
		}
	} else if needsIQ(u.in.Op) {
		if !p.qSpace(len(p.intQ), p.cfg.IntQ, t.isProtocol) {
			return false
		}
	}

	// Claim.
	if u.in.Src1.Valid() {
		u.physSrc1 = p.physOf(t, u.in.Src1)
		u.rdySrc1 = p.readyIndex(u.in.Src1.IsFP(), u.physSrc1)
	} else {
		u.physSrc1, u.rdySrc1 = -1, -1
	}
	if u.in.Src2.Valid() {
		u.physSrc2 = p.physOf(t, u.in.Src2)
		u.rdySrc2 = p.readyIndex(u.in.Src2.IsFP(), u.physSrc2)
	} else {
		u.physSrc2, u.rdySrc2 = -1, -1
	}
	u.physDst, u.oldDst, u.rdyDst = -1, -1, -1
	if u.in.Dst.Valid() {
		var r int16
		if u.in.Dst.IsFP() {
			r = p.fpFree.alloc(t.isProtocol)
		} else {
			r = p.intFree.alloc(t.isProtocol)
		}
		if r < 0 {
			panic("pipeline: register claim failed after availability check")
		}
		u.physDst = r
		u.oldDst = t.mapTable[u.in.Dst]
		t.mapTable[u.in.Dst] = r
		u.rdyDst = p.readyIndex(u.in.Dst.IsFP(), r)
		p.ready[u.rdyDst] = false
	}
	if isBranch {
		u.brCkpt = p.ckptAlloc(t)
		if u.brCkpt < 0 {
			panic("pipeline: branch stack claim failed after availability check")
		}
	}
	t.robPush(u)
	u.stage = sRenamed
	switch {
	case u.in.Op.IsMem():
		u.inLSQ = true
		p.lsq = append(p.lsq, u)
	case u.in.Op.IsFPOp():
		u.inIQ = true
		p.fpQ = append(p.fpQ, u)
		p.armWake(u, wakeFP)
	case needsIQ(u.in.Op):
		u.inIQ = true
		p.intQ = append(p.intQ, u)
		p.armWake(u, wakeInt)
	default:
		// Nop / SyncWait: nothing to execute; any destination is ready at
		// once so dependents never wait on it.
		u.executed = true
		if u.rdyDst >= 0 {
			p.markReady(u.rdyDst)
		}
		if u.in.Op != isa.OpSyncWait {
			u.stage = sDone
		}
		u.counted = false
		t.frontCount--
	}
	return true
}

// intReserveFor returns how many integer free-list entries are off-limits
// to this thread (the protocol thread's single reserved register, §2.2).
func (p *Pipeline) intReserveFor(t *thread) int {
	if p.cfg.HasProtocol && !t.isProtocol {
		return p.intFree.reserved
	}
	return 0
}

func needsIQ(op isa.Op) bool {
	switch op {
	case isa.OpNop, isa.OpSyncWait:
		return false
	}
	return true
}

func (p *Pipeline) physOf(t *thread, r isa.Reg) int16 {
	return t.mapTable[r]
}

// readyIndex folds the FP bank offset into a physical register's index in
// the flat ready array.
func (p *Pipeline) readyIndex(isFP bool, r int16) int16 {
	if isFP {
		return r + int16(p.cfg.IntRegs)
	}
	return r
}

// Issue-queue wake bits (Pipeline.qWake and Pipeline.waiters).
const (
	wakeInt uint8 = 1 << iota
	wakeFP
)

// markReady makes a physical register's value visible and wakes the issue
// queues holding a uop that waits on it. Every write of true into the
// ready array goes through here, or a waiting uop could sit unseen in a
// queue whose scan is gated off.
func (p *Pipeline) markReady(r int16) {
	p.ready[r] = true
	p.qWake |= p.waiters[r]
	p.waiters[r] = 0
}

// armWake records, for a uop just placed in the issue queue with wake bit
// bit, what will make it issuable: the queue's wake bit at once when both
// sources are ready, otherwise a waiter bit on each source not yet ready.
func (p *Pipeline) armWake(u *uop, bit uint8) {
	ready := true
	if s := u.rdySrc1; s >= 0 && !p.ready[s] {
		p.waiters[s] |= bit
		ready = false
	}
	if s := u.rdySrc2; s >= 0 && !p.ready[s] {
		p.waiters[s] |= bit
		ready = false
	}
	if ready {
		p.qWake |= bit
	}
}

// rebuildWake derives the wake state from the queues and the ready array
// (after a restore; the state is not part of a snapshot).
func (p *Pipeline) rebuildWake() {
	p.qWake = 0
	clear(p.waiters)
	for _, u := range p.intQ {
		p.armWake(u, wakeInt)
	}
	for _, u := range p.fpQ {
		p.armWake(u, wakeFP)
	}
}

// srcsReady reports whether both source operands are available.
func (p *Pipeline) srcsReady(u *uop) bool {
	s1 := u.rdySrc1 < 0 || p.ready[u.rdySrc1]
	s2 := u.rdySrc2 < 0 || p.ready[u.rdySrc2]
	return s1 && s2
}
