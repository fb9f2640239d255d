package pipeline

import (
	"smtpsim/internal/addrmap"
	"smtpsim/internal/sim"
)

// tlb is a fully-associative LRU translation buffer (paper Table 2: 128
// entries, fully associative, LRU, 4 KB pages). The protocol thread's code
// and data live in unmapped physical memory and never consult the TLBs
// (§2.1); only application instruction fetch and data access translate.
//
// The paper does not give a table-walk latency; the penalty here is a
// configurable fixed stall (hardware-walker class), and the applications
// are blocked for the DTLB exactly as Table 1 notes for FFT, so misses are
// rare by construction.
//
// Fills take the highest free slot and nothing ever invalidates an entry,
// so the valid entries are exactly the suffix [free, len): scans cost in
// proportion to the resident pages, not to the capacity, and a fill into a
// TLB that is not yet full needs no victim search at all.
type tlb struct {
	pages []uint64
	valid []bool
	stamp []uint64
	clock uint64
	last  int // entry of the most recent hit or fill: probed before scanning
	free  int // entries [0, free) are invalid, [free, len) valid (derived)

	Hits   uint64
	Misses uint64
}

func newTLB(entries int) *tlb {
	return &tlb{
		pages: make([]uint64, entries),
		valid: make([]bool, entries),
		stamp: make([]uint64, entries),
		free:  entries,
	}
}

// lookup translates addr, filling on miss; reports whether it hit.
// Consecutive lookups overwhelmingly land on the same page, so the entry
// that hit (or filled) last time is probed before the associative scan;
// a fast-path hit updates exactly the state a scan hit would. The scan
// runs from the top of the valid suffix down, where fills land first: a
// core's few code pages sit in the top slots, so the probe that misses
// `last` at every switch between fetching threads finds them at once.
func (t *tlb) lookup(addr uint64) bool {
	page := addrmap.PageOf(addr)
	t.clock++
	if l := t.last; t.valid[l] && t.pages[l] == page {
		t.stamp[l] = t.clock
		t.Hits++
		return true
	}
	if i := t.find(page); i >= 0 {
		t.stamp[i] = t.clock
		t.Hits++
		t.last = i
		return true
	}
	t.Misses++
	victim := t.free - 1
	if victim >= 0 {
		t.free = victim
	} else {
		// Full: evict the least recently used entry (the lowest index
		// wins a tie).
		victim = 0
		for i := 1; i < len(t.stamp); i++ {
			if t.stamp[i] < t.stamp[victim] {
				victim = i
			}
		}
	}
	t.pages[victim] = page
	t.valid[victim] = true
	t.stamp[victim] = t.clock
	t.last = victim
	return false
}

// find returns the entry holding page, or -1. Pages are unique among the
// valid entries (a fill happens only on a miss), so scan order is free.
func (t *tlb) find(page uint64) int {
	for i := len(t.pages) - 1; i >= t.free; i-- {
		if t.pages[i] == page {
			return i
		}
	}
	return -1
}

// skipHits applies n elided lookups of addr that are guaranteed hits: the
// recency clock advances once per lookup and the entry's stamp follows it,
// so the relative stamp order across entries — the only thing LRU victim
// choice observes — evolves exactly as n repeated lookups would leave it.
// Panics if the page is not resident, which would mean a component
// under-reported its next work to the kernel.
func (t *tlb) skipHits(addr uint64, n uint64) {
	i := t.find(addrmap.PageOf(addr))
	if i < 0 {
		panic("pipeline: skipHits on a non-resident page (quiescence contract violation)")
	}
	t.clock += n
	t.stamp[i] = t.clock
	t.Hits += n
	t.last = i
}

// dtlbCheck translates a data access for an application thread, returning
// the added latency (0 on hit). The protocol thread and unmapped regions
// bypass translation.
func (p *Pipeline) dtlbCheck(t *thread, addr uint64) sim.Cycle {
	if t.isProtocol || p.dtlb == nil || !addrmap.IsAppData(addr) {
		return 0
	}
	if p.dtlb.lookup(addr) {
		return 0
	}
	return sim.Cycle(p.cfg.TLBWalkCyc)
}

// itlbCheck translates an application instruction fetch; a miss blocks the
// thread for the walk latency.
func (p *Pipeline) itlbCheck(t *thread, pc uint64, now sim.Cycle) bool {
	if t.isProtocol || p.itlb == nil {
		return true
	}
	if p.itlb.lookup(pc) {
		return true
	}
	t.fetchStallUntil = now + sim.Cycle(p.cfg.TLBWalkCyc)
	return false
}
