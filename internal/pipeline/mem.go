package pipeline

import (
	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
)

// protoDConflict reports whether a protocol D-side fill of line would
// conflict with an in-flight application miss mapping to the same L1D set
// (the bypass-buffer condition of §2.2).
func (p *Pipeline) protoDConflict(line uint64) bool {
	set := p.l1d.SetIndex(line)
	conflict := false
	p.mshr.Entries(func(e *cache.MSHREntry) {
		if e.Class != cache.ClassProtocol && p.l1d.SetIndex(e.LineAddr) == set {
			conflict = true
		}
	})
	return conflict
}

func (p *Pipeline) protoIConflict(line uint64) bool {
	// Protocol code fills avoid evicting valid application code lines.
	ev := p.l1i.WouldEvict(line)
	return ev.State != cache.Invalid && !addrmap.IsCode(ev.Tag)
}

func (p *Pipeline) protoL2Conflict(line uint64) bool {
	set := p.l2.SetIndex(line)
	conflict := false
	p.mshr.Entries(func(e *cache.MSHREntry) {
		if e.Class != cache.ClassProtocol && p.l2.SetIndex(e.LineAddr) == set {
			conflict = true
		}
	})
	return conflict
}

// evictAwareL2Fill installs a line in the L2, handling the displaced
// victim: inclusion invalidations of L1 sublines and a writeback of dirty
// application data to its home.
func (p *Pipeline) evictAwareL2Fill(line uint64, st cache.State) {
	ev := p.l2.Fill(line, st)
	if ev.State == cache.Invalid {
		return
	}
	p.handleL2Eviction(ev)
}

// fillL2Bypass installs a protocol line in the L2 bypass buffer, keeping
// the L1-level structures included when its victim leaves.
func (p *Pipeline) fillL2Bypass(line uint64, st cache.State) {
	ev := p.l2byp.Fill(line, st)
	p.BypassFills++
	if ev.State != cache.Invalid {
		p.handleL2Eviction(ev)
	}
}

func (p *Pipeline) handleL2Eviction(ev cache.Line) {
	size := p.cfg.L2.LineSize
	dirty := ev.State == cache.Modified
	if p.l1d.InvalidateRange(ev.Tag, size) {
		dirty = true
	}
	p.l1i.InvalidateRange(ev.Tag, size)
	if p.dbyp != nil {
		// Inclusion extends to the protocol bypass buffers.
		if p.dbyp.InvalidateRange(ev.Tag, size) {
			dirty = true
		}
		p.ibyp.InvalidateRange(ev.Tag, size)
	}
	if !addrmap.IsAppData(ev.Tag) {
		return // directory/protocol-code lines write back locally, silently
	}
	if dirty && !p.wbPending[ev.Tag] {
		p.wbPending[ev.Tag] = true
		p.sendPI(coherence.MsgPIWriteback, ev.Tag)
	}
	// Clean (Shared or Exclusive) application lines drop silently; the
	// directory's ownerself/stale-sharer paths absorb the imprecision.
}

// sendPI enqueues a processor-interface message, retrying while the local
// miss interface is full.
func (p *Pipeline) sendPI(t coherence.MsgType, line uint64) {
	if !p.down.EnqueueLocal(uint8(t), line) {
		p.SendPISpins++
		p.eng.After(4, p.sendPIDesc(t, line))
	}
}

// execMem performs the cache access of a load/store/prefetch that won the
// AGU this cycle, reporting whether the op made progress (false = blocked
// on a structural resource and may yield the AGU).
func (p *Pipeline) execMem(u *uop, now sim.Cycle) bool {
	t := p.threads[u.tid]
	switch u.in.Op {
	case isa.OpLoad:
		return p.execLoad(u, t, now)
	case isa.OpStore:
		// Address generation only; data is written at graduation through
		// the store buffer.
		u.issued = true
		p.noteIssued(t, u)
		u.doneAt = now + 3
		p.inflight = append(p.inflight, u)
		return true
	case isa.OpPrefetch, isa.OpPrefetchX:
		p.execPrefetch(u, t, now)
		return true
	default:
		panic("pipeline: unexpected op in execMem: " + u.in.Op.String())
	}
}

func (p *Pipeline) noteIssued(t *thread, u *uop) {
	if u.counted {
		u.counted = false
		t.frontCount--
	}
}

// loadDone schedules a load's completion.
func (p *Pipeline) loadDone(u *uop, at sim.Cycle) {
	u.doneAt = at
	u.waitingMem = false
	p.inflight = append(p.inflight, u)
}

func (p *Pipeline) execLoad(u *uop, t *thread, now sim.Cycle) bool {
	addr := u.in.Addr
	base := now + 2 + p.dtlbCheck(t, addr) // operand read stages + translation
	hitL1 := p.l1d.Access(addr) != nil
	if !hitL1 && t.isProtocol && (p.cfg.PerfectProtoCaches || p.dbyp.Access(addr) != nil) {
		hitL1 = true
	}
	u.issued = true
	p.noteIssued(t, u)
	if hitL1 {
		p.loadDone(u, base+sim.Cycle(p.cfg.L1D.HitLat))
		return true
	}
	p.L1DMissed++
	// L2 lookup.
	l2hit := p.l2.Access(addr) != nil
	if !l2hit && t.isProtocol && p.l2byp.Access(addr) != nil {
		l2hit = true
	}
	if l2hit {
		p.fillL1D(t, addr, false)
		p.loadDone(u, base+sim.Cycle(p.cfg.L2HitCyc))
		return true
	}
	p.L2Missed++
	line := p.l2.LineAddr(addr)
	if t.isProtocol {
		p.protoL2Miss(u, line, addr, false)
		return true
	}
	u.waitingMem = true
	if !p.startAppMiss(u.seq, addr, false, cache.ClassApp) {
		// No MSHR: yield the AGU and retry until one frees up.
		u.issued = false
		u.waitingMem = false
		if u.counted {
			// keep ICOUNT consistent: the op returns to unissued state.
		} else {
			u.counted = true
			t.frontCount++
		}
		p.L1DMissed-- // will be recounted on the successful attempt
		p.L2Missed--
		return false
	}
	return true
}

// protoL2Miss services a protocol-thread L2 miss over the separate protocol
// bus, using the reserved MSHR entry for flow control (§2.1, §2.2).
func (p *Pipeline) protoL2Miss(u *uop, line uint64, addr uint64, isStore bool) {
	if e := p.mshr.Find(line); e != nil {
		// Rare: protocol access to a line with an outstanding app miss;
		// wait alongside it.
		if u != nil {
			u.waitingMem = true
			e.Waiters = append(e.Waiters, u.seq)
		}
		return
	}
	e := p.mshr.Alloc(line, isStore, cache.ClassProtocol)
	if e == nil {
		// Reserved entry is in use; retry shortly.
		p.ProtoRetrySpins++
		p.eng.After(2, p.protoRetryDesc(u, line, addr, isStore))
		return
	}
	if u != nil {
		u.waitingMem = true
		e.Waiters = append(e.Waiters, u.seq)
	}
	p.down.ProtocolMiss(line, p.protoDoneDesc(line, addr))
}

// protoMissDone completes a protocol-thread L2 miss: the line is installed,
// the waiting loads finish, and the MSHR entry frees. The entry is re-found
// by line rather than captured: protocol entries are freed only by their
// own completion, so the line maps uniquely back to the allocation — which
// lets a snapshot rebuild this event from (line, addr) alone. Its waiters
// are protocol loads: a draining protocol store registers none (storePoll
// completes it).
func (p *Pipeline) protoMissDone(line, addr uint64) {
	e := p.mshr.Find(line)
	st := cache.Exclusive
	if addrmap.IsDirectory(line) {
		st = cache.Modified // local-only data, writable immediately
	}
	if p.protoL2Conflict(line) {
		p.fillL2Bypass(line, st)
	} else {
		p.evictAwareL2Fill(line, st)
	}
	now := p.eng.Now()
	for _, seq := range e.Waiters {
		p.fillL1DProto(addr)
		p.loadDone(p.queuedLoad(seq), now+1)
	}
	p.mshr.Free(e)
}

// queuedLoad resolves an MSHR waiter token to its load, which stays in the
// load/store queue until it retires; nil when the token names none.
func (p *Pipeline) queuedLoad(seq uint64) *uop {
	for _, u := range p.lsq {
		if u.seq == seq && u.in.Op == isa.OpLoad {
			return u
		}
	}
	return nil
}

// storeIndex returns the store-buffer index of the committed store with
// sequence number seq, or -1.
func (p *Pipeline) storeIndex(seq uint64) int {
	for i := range p.storeBuf {
		if p.storeBuf[i].seq == seq {
			return i
		}
	}
	return -1
}

// fillL1D installs the L1D subline for addr (after an L2 hit or refill).
func (p *Pipeline) fillL1D(t *thread, addr uint64, dirty bool) {
	if t != nil && t.isProtocol {
		p.fillL1DProto(addr)
		return
	}
	st := cache.Shared
	if dirty {
		st = cache.Modified
	}
	ev := p.l1d.Fill(addr, st)
	if ev.State == cache.Modified {
		// Dirty L1 victim folds back into the (inclusive) L2.
		p.l2.SetState(ev.Tag, cache.Modified)
	}
}

func (p *Pipeline) fillL1DProto(addr uint64) {
	line := p.l1d.LineAddr(addr)
	if p.protoDConflict(line) {
		p.dbyp.Fill(line, cache.Shared)
		p.BypassFills++
		return
	}
	ev := p.l1d.Fill(line, cache.Shared)
	if ev.State == cache.Modified {
		p.l2.SetState(ev.Tag, cache.Modified)
	}
}

func (p *Pipeline) execPrefetch(u *uop, t *thread, now sim.Cycle) {
	u.issued = true
	p.noteIssued(t, u)
	p.Prefetches++
	// The prefetch instruction itself completes immediately.
	p.loadDone(u, now+3)
	addr := u.in.Addr
	if p.l1d.Probe(addr) != nil || p.l2.Probe(addr) != nil {
		return
	}
	excl := u.in.Op == isa.OpPrefetchX
	line := p.l2.LineAddr(addr)
	if p.mshr.Find(line) != nil {
		return
	}
	// Non-binding: dropped when resources are busy.
	p.startAppMiss(0, addr, excl, cache.ClassApp)
}

// startAppMiss allocates (or joins) an MSHR for an application L2 miss and
// sends the processor-interface request. waiter is the sequence number of
// the waiting load or buffered store, or 0 (a prefetch: sequence numbers
// start at 1).
func (p *Pipeline) startAppMiss(waiter, addr uint64, excl bool, class cache.MSHRClass) bool {
	line := p.l2.LineAddr(addr)
	e := p.mshr.Find(line)
	if e == nil {
		if e = p.mshr.Alloc(line, excl, class); e == nil {
			return false
		}
		p.issueMissRequest(e)
	}
	if waiter != 0 {
		e.Waiters = append(e.Waiters, waiter)
	}
	return true
}

// issueMissRequest picks the request type from current state and sends it.
func (p *Pipeline) issueMissRequest(e *cache.MSHREntry) {
	t := coherence.MsgPIRead
	if e.Exclusive {
		if l := p.l2.Probe(e.LineAddr); l != nil && l.State == cache.Shared {
			t = coherence.MsgPIUpgrade
			p.UpgradeReqs++
		} else {
			t = coherence.MsgPIWrite
		}
	}
	p.sendPI(t, e.LineAddr)
	e.Issued = true
}

// DeliverRefill completes an outstanding miss: the line is installed in the
// L2 (and requesting L1D sublines), waiters finish, and eager-exclusive
// invalidation acks start being collected.
func (p *Pipeline) DeliverRefill(line uint64, st cache.State, acks int, upgrade bool) {
	p.extInput()
	e := p.mshr.Find(line)
	if acks != 0 {
		p.acksWanted[line] += acks
		if p.acksWanted[line] == 0 {
			delete(p.acksWanted, line)
		}
	}
	if upgrade {
		p.l2.SetState(line, st)
	} else {
		p.evictAwareL2Fill(line, st)
	}
	if e == nil {
		return // e.g. an upgrade that raced with an eviction
	}
	// The waiters resolve before the entry frees: Free keeps the waiter
	// array for the slot's next allocation.
	now := p.eng.Now()
	for _, seq := range e.Waiters {
		if u := p.queuedLoad(seq); u != nil {
			p.fillL1D(p.threads[u.tid], u.in.Addr, false)
			p.loadDone(u, now+1)
			continue
		}
		i := p.storeIndex(seq)
		if l := p.l2.Probe(line); l != nil && l.State.Writable() {
			p.performStore(i)
		} else {
			// The store joined a read miss; the drain logic will issue
			// the upgrade now that the line is present.
			p.storeBuf[i].pending = false
		}
	}
	p.mshr.Free(e)
	delete(p.refillDue, line)
}

// DeliverNak retries a NAKed transaction after a backoff (the request may
// change flavour: a lost upgrade becomes a read-exclusive).
func (p *Pipeline) DeliverNak(line uint64) {
	p.extInput()
	e := p.mshr.Find(line)
	if e == nil {
		return
	}
	e.Issued = false
	gen := e.Gen
	p.eng.After(sim.Cycle(p.cfg.NakBackoff), p.nakRetryDesc(line, gen))
}

// nakRetry re-issues a NAKed transaction unless the entry it was armed for
// is gone (refill arrived during backoff) or a newer request already issued.
// The allocation generation — not the entry pointer — identifies the
// transaction, so the check survives snapshot/restore and slot reuse.
func (p *Pipeline) nakRetry(line, gen uint64) {
	if cur := p.mshr.Find(line); cur != nil && cur.Gen == gen && !cur.Issued {
		p.issueMissRequest(cur)
	}
}

// DeliverIAck counts one invalidation acknowledgment (they may arrive
// before the data reply announcing how many to expect, so the counter can
// go negative transiently).
func (p *Pipeline) DeliverIAck(line uint64) {
	p.extInput()
	p.acksWanted[line]--
	if p.acksWanted[line] == 0 {
		delete(p.acksWanted, line)
	}
}

// DeliverWBAck completes a writeback.
func (p *Pipeline) DeliverWBAck(line uint64) {
	p.extInput()
	delete(p.wbPending, line)
}

// HasOutstanding reports whether the line has an in-flight miss (used by
// the node to defer interventions that overtook our data reply).
func (p *Pipeline) HasOutstanding(line uint64) bool {
	return p.mshr.Find(line) != nil
}

// CacheProbe implements the coherence environment's local L2 probe.
func (p *Pipeline) CacheProbe(line uint64) cache.State {
	if l := p.l2.Probe(line); l != nil {
		return l.State
	}
	return cache.Invalid
}

// CacheInvalidate removes the line from the whole hierarchy; true if any
// copy was dirty.
func (p *Pipeline) CacheInvalidate(line uint64) bool {
	dirty := p.l1d.InvalidateRange(line, p.cfg.L2.LineSize)
	p.l1i.InvalidateRange(line, p.cfg.L2.LineSize)
	if p.l2.Invalidate(line) == cache.Modified {
		dirty = true
	}
	return dirty
}

// CacheDowngrade moves the line to Shared everywhere; true if it was dirty.
func (p *Pipeline) CacheDowngrade(line uint64) bool {
	dirty := p.l1d.DowngradeRange(line, p.cfg.L2.LineSize)
	if l := p.l2.Probe(line); l != nil {
		if l.State == cache.Modified {
			dirty = true
		}
		if l.State.Writable() {
			l.State = cache.Shared
		}
	}
	return dirty
}

// drainStoreBuffer retires one committed store per cycle into the cache
// hierarchy, acquiring ownership when needed. Entries waiting on a refill
// do not block younger stores to other lines — in particular, a protocol
// directory store must be able to drain past an application store whose
// refill transitively depends on protocol-thread progress (the §2.2
// reserved slot is only deadlock-free together with this bypass).
func (p *Pipeline) drainStoreBuffer(now sim.Cycle) {
	if len(p.storeBuf) == 0 {
		return
	}
	blocked := p.blockedLines[:0]
scan:
	for i := range p.storeBuf {
		cand := &p.storeBuf[i]
		line := p.l2.LineAddr(cand.addr)
		for _, b := range blocked {
			if b == line {
				continue scan // preserve per-line store order
			}
		}
		if cand.pending {
			blocked = append(blocked, line)
			continue
		}
		// Even a failed drain attempt mutates counters (MSHR alloc failures,
		// spin statistics) or hierarchy state: not skippable.
		p.active = true
		if p.tryDrainStore(i) {
			break // one store made progress this cycle
		}
		// Structurally blocked (MSHR exhausted): must not block younger
		// stores to other lines — especially protocol directory stores.
		blocked = append(blocked, line)
	}
	p.blockedLines = blocked[:0]
}

// tryDrainStore attempts to retire store-buffer entry i; false means it is
// blocked on a structural resource and a younger entry may go instead.
func (p *Pipeline) tryDrainStore(i int) bool {
	e := &p.storeBuf[i]
	if p.threads[e.tid].isProtocol {
		p.drainProtoStore(i)
		return true
	}
	if l := p.l2.Probe(e.addr); l != nil && l.State.Writable() {
		p.performStore(i)
		return true
	}
	// Allocate a miss for the line, or wait on the one already outstanding;
	// the refill performs the store or lets the drain retry.
	if !p.startAppMiss(e.seq, e.addr, true, cache.ClassStoreRetire) {
		return false // MSHRs full
	}
	e.pending = true
	return true
}

func (p *Pipeline) drainProtoStore(i int) {
	e := &p.storeBuf[i]
	line := p.l2.LineAddr(e.addr)
	inL2 := p.cfg.PerfectProtoCaches || p.l2.Probe(line) != nil || p.l2byp.Probe(line) != nil
	if inL2 {
		p.performStore(i)
		return
	}
	e.pending = true
	p.protoL2Miss(nil, line, e.addr, true)
	// protoL2Miss fills the cache; complete the store when the line lands.
	p.eng.After(4, p.storePollDesc(e.seq, line))
}

// storePoll completes a draining protocol store once its line has landed in
// the L2 (or its bypass buffer). The entry is re-found in the store buffer
// by its sequence number — the poll is the entry's sole completer
// (protoL2Miss registered no waiter for it), so a missing entry means only
// that a snapshot restored a poll whose store already performed.
func (p *Pipeline) storePoll(seq, line uint64) {
	i := p.storeIndex(seq)
	if i < 0 {
		return
	}
	if p.l2.Probe(line) != nil || p.l2byp.Probe(line) != nil {
		p.performStore(i)
		return
	}
	p.StorePollSpins++
	p.eng.After(4, p.storePollDesc(seq, line))
}

// performStore writes committed store i's data into the hierarchy and
// releases its store-buffer slot.
func (p *Pipeline) performStore(i int) {
	s := &p.storeBuf[i]
	addr := s.addr
	if p.threads[s.tid].isProtocol {
		line := p.l1d.LineAddr(addr)
		if p.dbyp.Probe(line) != nil {
			p.dbyp.SetState(line, cache.Modified)
		} else if p.protoDConflict(line) {
			p.dbyp.Fill(line, cache.Modified)
			p.BypassFills++
		} else {
			p.fillL1D(nil, addr, true)
		}
		if l := p.l2.Probe(addr); l != nil {
			l.State = cache.Modified
		} else {
			p.l2byp.SetState(p.l2byp.LineAddr(addr), cache.Modified)
		}
	} else {
		p.fillL1D(nil, addr, true)
		p.l2.SetState(p.l2.LineAddr(addr), cache.Modified)
	}
	p.storeBuf = append(p.storeBuf[:i], p.storeBuf[i+1:]...)
}
