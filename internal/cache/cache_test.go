package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Size: 1024, LineSize: 64, Assoc: 2, HitLat: 1}) // 8 sets
}

func TestGeometry(t *testing.T) {
	c := New(Config{Size: 32 * 1024, LineSize: 32, Assoc: 2, HitLat: 1})
	if c.Cfg().Sets() != 512 {
		t.Fatalf("32KB/32B/2-way should have 512 sets, got %d", c.Cfg().Sets())
	}
	l2 := New(Config{Size: 2 * 1024 * 1024, LineSize: 128, Assoc: 8, HitLat: 9})
	if l2.Cfg().Sets() != 2048 {
		t.Fatalf("2MB/128B/8-way should have 2048 sets, got %d", l2.Cfg().Sets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry must panic")
		}
	}()
	New(Config{Size: 1000, LineSize: 64, Assoc: 2})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x40) != nil {
		t.Fatal("cold access must miss")
	}
	c.Fill(0x40, Shared)
	l := c.Access(0x47) // same line
	if l == nil || l.State != Shared || l.Tag != 0x40 {
		t.Fatalf("expected hit on filled line, got %+v", l)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 8 sets, 2 ways; addresses 64*8 apart share a set
	a, b, d := uint64(0), uint64(64*8), uint64(64*16)
	c.Fill(a, Shared)
	c.Fill(b, Shared)
	c.Access(a) // b is now LRU
	ev := c.Fill(d, Shared)
	if ev.State == Invalid || ev.Tag != b {
		t.Fatalf("expected eviction of %#x, got %+v", b, ev)
	}
	if c.Probe(a) == nil || c.Probe(d) == nil || c.Probe(b) != nil {
		t.Fatal("wrong lines present after eviction")
	}
}

func TestWouldEvictMatchesFill(t *testing.T) {
	c := small()
	a, b, d := uint64(0), uint64(64*8), uint64(64*16)
	c.Fill(a, Modified)
	c.Fill(b, Shared)
	c.Access(a)
	we := c.WouldEvict(d)
	ev := c.Fill(d, Shared)
	if we.Tag != ev.Tag || we.State != ev.State {
		t.Fatalf("WouldEvict %+v != Fill eviction %+v", we, ev)
	}
	if w := c.WouldEvict(d); w.State != Invalid {
		t.Fatal("WouldEvict of a present line must be Invalid")
	}
}

func TestFillPresentLineUpdatesState(t *testing.T) {
	c := small()
	c.Fill(0, Shared)
	ev := c.Fill(0, Modified)
	if ev.State != Invalid {
		t.Fatal("refill of present line must not evict")
	}
	if c.Probe(0).State != Modified {
		t.Fatal("refill must update state")
	}
}

func TestInvalidateAndSetState(t *testing.T) {
	c := small()
	c.Fill(0x80, Modified)
	if st := c.Invalidate(0x80); st != Modified {
		t.Fatalf("invalidate returned %v, want M", st)
	}
	if st := c.Invalidate(0x80); st != Invalid {
		t.Fatal("second invalidate must return Invalid")
	}
	c.Fill(0x80, Exclusive)
	c.SetState(0x80, Shared)
	if c.Probe(0x80).State != Shared {
		t.Fatal("SetState failed")
	}
	c.SetState(0x4000, Modified) // absent: no-op, no panic
}

func TestInvalidateRangeForInclusion(t *testing.T) {
	// L1D (32B lines) must drop all four sublines of a 128B L2 line.
	l1 := New(Config{Size: 1024, LineSize: 32, Assoc: 2, HitLat: 1})
	base := uint64(0x200)
	for i := 0; i < 4; i++ {
		l1.Fill(base+uint64(i*32), Shared)
	}
	l1.SetState(base+32, Modified)
	if dirty := l1.InvalidateRange(base, 128); !dirty {
		t.Fatal("must report dirty subline")
	}
	for i := 0; i < 4; i++ {
		if l1.Probe(base+uint64(i*32)) != nil {
			t.Fatalf("subline %d survived inclusion invalidation", i)
		}
	}
}

func TestDowngradeRange(t *testing.T) {
	l1 := New(Config{Size: 1024, LineSize: 32, Assoc: 2, HitLat: 1})
	l1.Fill(0, Modified)
	l1.Fill(32, Exclusive)
	l1.Fill(64, Shared)
	if dirty := l1.DowngradeRange(0, 128); !dirty {
		t.Fatal("downgrade must report dirty data")
	}
	for _, a := range []uint64{0, 32, 64} {
		if st := l1.Probe(a).State; st != Shared {
			t.Fatalf("line %#x state %v after downgrade, want S", a, st)
		}
	}
}

func TestStateHelpers(t *testing.T) {
	if Invalid.Writable() || Shared.Writable() {
		t.Fatal("I/S are not writable")
	}
	if !Exclusive.Writable() || !Modified.Writable() {
		t.Fatal("E/M are writable")
	}
	for _, s := range []State{Invalid, Shared, Exclusive, Modified} {
		if s.String() == "?" {
			t.Fatal("state missing a name")
		}
	}
}

func TestLinesIteration(t *testing.T) {
	c := small()
	c.Fill(0, Shared)
	c.Fill(64, Modified)
	seen := map[uint64]State{}
	c.Lines(func(tag uint64, st State) { seen[tag] = st })
	if len(seen) != 2 || seen[0] != Shared || seen[64] != Modified {
		t.Fatalf("Lines saw %v", seen)
	}
}

// Property: after any access sequence, a set never holds two lines with the
// same tag and never exceeds its associativity in valid lines.
func TestQuickNoDuplicateTags(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		for _, o := range ops {
			addr := uint64(o) * 32
			if c.Access(addr) == nil {
				c.Fill(addr, Shared)
			}
		}
		ok := true
		for s := 0; s < c.cfg.Sets(); s++ {
			tags := map[uint64]int{}
			valid := 0
			for _, l := range c.lines[s*c.cfg.Assoc : (s+1)*c.cfg.Assoc] {
				if l.State != Invalid {
					valid++
					tags[l.Tag]++
					if tags[l.Tag] > 1 {
						ok = false
					}
					if c.SetIndex(l.Tag) != s {
						ok = false // line in the wrong set
					}
				}
			}
			if valid > c.cfg.Assoc {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a just-filled line always survives until at least Assoc distinct
// other lines map to its set (true LRU).
func TestQuickLRUProtectsMRU(t *testing.T) {
	c := small()
	c.Fill(0, Shared)
	c.Fill(64*8, Shared) // same set
	c.Access(0)
	// One more fill to the set evicts the non-MRU line.
	c.Fill(64*16, Shared)
	if c.Probe(0) == nil {
		t.Fatal("MRU line was evicted")
	}
}

func TestBypassBufferIsFullyAssociative(t *testing.T) {
	b := NewBypass(32, 16)
	// 16 lines that would all conflict in a set-indexed cache fit here.
	for i := 0; i < 16; i++ {
		b.Fill(uint64(i)*32*512, Shared)
	}
	for i := 0; i < 16; i++ {
		if b.Probe(uint64(i)*32*512) == nil {
			t.Fatalf("bypass line %d missing", i)
		}
	}
	// The 17th evicts exactly one (the LRU, line 0).
	b.Fill(16*32*512, Shared)
	if b.Probe(0) != nil {
		t.Fatal("LRU bypass line should be gone")
	}
}
