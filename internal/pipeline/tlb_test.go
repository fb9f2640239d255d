package pipeline

import (
	"math/rand"
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/isa"
	"smtpsim/internal/snapshot"
)

// refTLB is the reference model for tlb: the plain linear-scan design.
// Every lookup that misses the last entry scans all entries, and a miss
// fills the highest invalid entry, or the least recently used one when
// none is invalid. tlb must behave exactly like it.
type refTLB struct {
	pages []uint64
	valid []bool
	stamp []uint64
	clock uint64
	last  int

	Hits   uint64
	Misses uint64
}

func newRefTLB(entries int) *refTLB {
	return &refTLB{
		pages: make([]uint64, entries),
		valid: make([]bool, entries),
		stamp: make([]uint64, entries),
	}
}

func (t *refTLB) lookup(addr uint64) bool {
	page := addrmap.PageOf(addr)
	t.clock++
	if l := t.last; t.valid[l] && t.pages[l] == page {
		t.stamp[l] = t.clock
		t.Hits++
		return true
	}
	victim := 0
	for i := range t.pages {
		if t.valid[i] && t.pages[i] == page {
			t.stamp[i] = t.clock
			t.Hits++
			t.last = i
			return true
		}
		if !t.valid[i] {
			victim = i
		} else if t.valid[victim] && t.stamp[i] < t.stamp[victim] {
			victim = i
		}
	}
	t.Misses++
	t.pages[victim] = page
	t.valid[victim] = true
	t.stamp[victim] = t.clock
	t.last = victim
	return false
}

func (t *refTLB) skipHits(addr uint64, n uint64) {
	page := addrmap.PageOf(addr)
	for i := range t.pages {
		if t.valid[i] && t.pages[i] == page {
			t.clock += n
			t.stamp[i] = t.clock
			t.Hits += n
			t.last = i
			return
		}
	}
	panic("refTLB: skipHits on a non-resident page")
}

// sameTLB reports the first field in which got differs from the model.
func sameTLB(got *tlb, want *refTLB) string {
	for i := range want.pages {
		switch {
		case got.valid[i] != want.valid[i]:
			return "valid"
		case got.pages[i] != want.pages[i]:
			return "pages"
		case got.stamp[i] != want.stamp[i]:
			return "stamp"
		}
	}
	switch {
	case got.clock != want.clock:
		return "clock"
	case got.last != want.last:
		return "last"
	case got.Hits != want.Hits:
		return "Hits"
	case got.Misses != want.Misses:
		return "Misses"
	}
	return ""
}

// roundTrip saves t and loads the bytes into a fresh TLB of the same size.
func roundTrip(t *testing.T, tb *tlb) *tlb {
	t.Helper()
	e := snapshot.NewEncoder()
	tb.saveState(e)
	d, err := snapshot.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	out := newTLB(len(tb.pages))
	out.loadState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("tlb round trip: %v", err)
	}
	if out.free != tb.free {
		t.Fatalf("restored free = %d, want %d", out.free, tb.free)
	}
	return out
}

// TestTLBMatchesLinearScan drives tlb and the linear-scan model with the
// same random page streams — more distinct pages than entries, so the
// full-TLB LRU path runs — with elided hits mixed in and a save/load round
// trip mid-stream, comparing every lookup's outcome and the full state.
func TestTLBMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct {
		entries, pages int
		seed           int64
	}{
		{1, 3, 1},
		{4, 9, 2},
		{16, 40, 3},
		{128, 300, 4},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		got, want := newTLB(tc.entries), newRefTLB(tc.entries)
		const steps = 20000
		lastAddr := uint64(0)
		for step := 0; step < steps; step++ {
			if step == steps/2 {
				got = roundTrip(t, got)
			}
			if step > 0 && rng.Intn(8) == 0 {
				// The page last looked up is always resident.
				n := uint64(1 + rng.Intn(40))
				got.skipHits(lastAddr, n)
				want.skipHits(lastAddr, n)
			} else {
				// Skewed: a hot set of entries/2 pages takes most lookups.
				page := rng.Intn(tc.pages)
				if rng.Intn(4) != 0 {
					page = rng.Intn(tc.entries/2 + 1)
				}
				lastAddr = uint64(page)*addrmap.PageSize + uint64(rng.Intn(addrmap.PageSize))
				if g, w := got.lookup(lastAddr), want.lookup(lastAddr); g != w {
					t.Fatalf("%d entries, step %d: hit=%v, model hit=%v", tc.entries, step, g, w)
				}
			}
			if f := sameTLB(got, want); f != "" {
				t.Fatalf("%d entries, step %d: %s differs from the model", tc.entries, step, f)
			}
		}
		if want.Misses <= uint64(tc.entries) {
			t.Fatalf("%d entries: only %d misses, the full-TLB path never ran", tc.entries, want.Misses)
		}
	}
}

// TestTLBLoadStateRejectsCorruption: a restored TLB must have its valid
// entries in the suffix fills build and its last entry in range; anything
// else is a decode error, never a later panic.
func TestTLBLoadStateRejectsCorruption(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name  string
		valid []bool
		last  int
	}{
		{"valid not a suffix", []bool{false, true, false, true}, 3},
		{"valid prefix", []bool{true, true, false, false}, 0},
		{"last negative", []bool{false, false, true, true}, -1},
		{"last past the end", []bool{false, false, true, true}, n},
		{"wrong length", []bool{true, true}, 0},
	} {
		e := snapshot.NewEncoder()
		e.Mark("tlb")
		e.U64s(make([]uint64, n))
		e.Bools(tc.valid)
		e.U64s(make([]uint64, n))
		e.U64(7)
		e.Int(tc.last)
		e.U64(0)
		e.U64(0)
		d, err := snapshot.NewDecoder(e.Finish())
		if err != nil {
			t.Fatal(err)
		}
		newTLB(n).loadState(d)
		if d.Err() == nil {
			t.Errorf("%s: loadState accepted a corrupt TLB", tc.name)
		}
	}
}

func TestTLBHitMissLRU(t *testing.T) {
	tb := newTLB(2)
	if tb.lookup(0) {
		t.Fatal("cold lookup must miss")
	}
	if !tb.lookup(100) {
		t.Fatal("same page must hit")
	}
	tb.lookup(addrmap.PageSize)     // second entry
	tb.lookup(0)                    // page 0 now MRU
	tb.lookup(3 * addrmap.PageSize) // evicts page 1 (LRU), becomes MRU
	if tb.lookup(addrmap.PageSize) {
		t.Fatal("LRU page must have been evicted")
	}
	// That miss refilled page 1 over the then-LRU page 0; the MRU page 3
	// must have survived both evictions.
	if !tb.lookup(3 * addrmap.PageSize) {
		t.Fatal("MRU page must survive")
	}
	if tb.Hits == 0 || tb.Misses == 0 {
		t.Fatal("statistics not counted")
	}
}

func TestDTLBMissAddsLatency(t *testing.T) {
	r := newRig(1, false)
	th := r.p.threads[0]
	if got := r.p.dtlbCheck(th, 0x4000); got == 0 {
		t.Fatal("cold DTLB access must pay the walk")
	}
	if got := r.p.dtlbCheck(th, 0x4008); got != 0 {
		t.Fatal("second access to the page must hit")
	}
}

func TestProtocolThreadBypassesTLBs(t *testing.T) {
	r := newRig(1, true)
	pt := r.p.threads[r.p.ProtoTID()]
	// Directory addresses via the protocol thread never touch the DTLB.
	if got := r.p.dtlbCheck(pt, addrmap.DirBase+0x40); got != 0 {
		t.Fatal("protocol accesses are unmapped: no TLB")
	}
	if r.p.dtlb.Misses != 0 {
		t.Fatal("protocol access polluted the DTLB")
	}
	if !r.p.itlbCheck(pt, addrmap.CodeBase, 0) {
		t.Fatal("protocol fetch must not consult the ITLB")
	}
}

func TestDirectoryRegionBypassesDTLB(t *testing.T) {
	r := newRig(1, false)
	th := r.p.threads[0]
	if got := r.p.dtlbCheck(th, addrmap.DirBase); got != 0 {
		t.Fatal("unmapped region must not translate")
	}
}

func TestTLBDisabled(t *testing.T) {
	eng, down, syn := newRig(1, false).eng, &mockDown{}, &alwaysSync{ready: true}
	_ = eng
	cfg := DefaultConfig(1, false)
	cfg.TLBEntries = 0
	p := New(cfg, newRig(1, false).eng, down, syn)
	if got := p.dtlbCheck(p.threads[0], 0x1000); got != 0 {
		t.Fatal("disabled TLB must never stall")
	}
}

func TestITLBMissStallsFetch(t *testing.T) {
	r := newRig(1, false)
	ins := prog(0x100000, aluChain(4)...)
	r.warm(ins)
	r.p.SetSource(0, &sliceSource{ins: ins})
	// First fetch attempt walks the ITLB.
	r.run(3)
	if r.p.threads[0].fetchStallUntil == 0 {
		t.Fatal("cold ITLB miss must stall fetch")
	}
	r.runUntilDone(t, 1000)
	if r.p.itlb.Misses == 0 {
		t.Fatal("ITLB miss not counted")
	}
	_ = isa.OpNop
}
