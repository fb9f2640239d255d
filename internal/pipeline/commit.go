package pipeline

import (
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// commit retires up to CommitWidth instructions per cycle. The graduation
// unit examines the heads of all active lists round-robin, both within and
// across cycles (§2).
func (p *Pipeline) commit(now sim.Cycle) {
	width := p.cfg.CommitWidth
	n := len(p.threads)
	start := p.commitRR
	p.commitRR = (p.commitRR + 1) % n
	for i := 0; i < n && width > 0; i++ {
		t := p.threads[(start+i)%n]
		for width > 0 {
			u := t.robPeek()
			if u == nil || !p.retireable(u, t, now) {
				break
			}
			p.active = true
			p.retire(u, t, now)
			width--
		}
	}
}

// retireable decides whether the head instruction can graduate now,
// performing at-head execution of non-speculative operations.
func (p *Pipeline) retireable(u *uop, t *thread, now sim.Cycle) bool {
	switch u.in.Op {
	case isa.OpStore:
		// Needs its address generated and a store-buffer slot.
		if !u.executed {
			return false
		}
		return p.qSpace(len(p.storeBuf), p.cfg.StoreBuffer, t.isProtocol)
	case isa.OpSyncWait:
		if !u.polled {
			// The first poll registers arrival with the sync manager — a
			// real state change; repeat polls of a blocked wait are pure.
			u.polled = true
			t.synPolled = true
			p.active = true
		}
		return p.sync != nil && p.sync.SyncPoll(t.id, u.in.SyncTok)
	case isa.OpSwitch:
		return p.proto.switchReady()
	case isa.OpLdctxt, isa.OpSendHdr, isa.OpSendAddr:
		return true // executed as part of retire
	default:
		return u.stage == sDone
	}
}

// retire graduates the head instruction.
func (p *Pipeline) retire(u *uop, t *thread, now sim.Cycle) {
	switch u.in.Op {
	case isa.OpStore:
		p.storeBuf = append(p.storeBuf, storeEntry{seq: u.seq, addr: u.in.Addr, tid: u.tid})
	case isa.OpLdctxt:
		p.proto.handlerDone()
	case isa.OpSyncWait:
		t.fetchBlockedSyn = false
	}
	// Protocol-trace side effects (sends, refills, acks) fire when their
	// carrying instruction graduates — in order and non-speculatively.
	if u.in.Effect != 0 && u.in.Op != isa.OpLdctxt {
		p.down.FireEffect(u.in.Effect)
	}
	if u.rdyDst >= 0 {
		// Uncached loads (switch/ldctxt) produce their value at graduation.
		p.markReady(u.rdyDst)
	}
	if u.inLSQ {
		p.lsq = removeUop(p.lsq, u)
		u.inLSQ = false
	}
	if u.counted {
		u.counted = false
		t.frontCount--
	}
	if u.oldDst >= 0 {
		if u.in.Dst.IsFP() {
			p.fpFree.release(u.oldDst)
		} else {
			p.intFree.release(u.oldDst)
		}
	}
	t.robPop()
	p.Retired[u.tid]++
	p.freeUop(u)
}
