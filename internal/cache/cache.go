// Package cache implements the cache structures of an SMTp node: the
// set-associative LRU L1 instruction, L1 data and unified L2 caches, the
// miss-status holding register (MSHR) file with the paper's "16 + 1 for
// retiring stores" organization and the SMTp-reserved entry, and the small
// fully-associative bypass buffers the protocol thread uses when its misses
// conflict with in-flight application misses (paper §2.2).
package cache

import (
	"fmt"

	"smtpsim/internal/stats"
)

// State is a cache-line coherence state. L1 caches use Invalid/Shared/
// Modified; the L2 additionally distinguishes clean-exclusive (from the
// protocol's eager-exclusive replies).
type State uint8

// Line states.
const (
	Invalid State = iota
	Shared
	Exclusive // clean, writable without upgrade
	Modified  // dirty
)

// String returns a short name for the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Writable reports whether a store may hit in this state without an
// ownership request.
func (s State) Writable() bool { return s == Exclusive || s == Modified }

// Line is one cache line's tag state.
type Line struct {
	Tag   uint64 // full line address (addr &^ (lineSize-1))
	State State
	stamp uint64 // LRU timestamp; larger = more recent
}

// Config describes a cache's geometry.
type Config struct {
	Size     int // bytes
	LineSize int // bytes
	Assoc    int // ways
	HitLat   int // cycles for a hit (round trip)
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.Size / (c.LineSize * c.Assoc) }

// Cache is a set-associative cache with true-LRU replacement. All lines
// live in one flat, pointer-free backing array — set i is the Assoc ways
// starting at lines[i*Assoc] — so a cache is two heap objects regardless of
// geometry, and the collector never scans its lines.
type Cache struct {
	cfg   Config
	lines []Line // sets*assoc backing store
	clock uint64

	// Shift/mask index decomposition; New guarantees LineSize and the set
	// count are powers of two.
	lineShift uint
	setMask   uint64

	valid int // maintained count of non-Invalid lines

	Hits   uint64
	Misses uint64
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// New builds a cache. The geometry must divide evenly, and both LineSize
// and the implied set count must be powers of two (the index computation
// is a shift and mask).
func New(cfg Config) *Cache {
	if !pow2(cfg.LineSize) {
		panic(fmt.Sprintf("cache: line size %d is not a power of two (%+v)", cfg.LineSize, cfg))
	}
	if cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	sets := cfg.Sets()
	if sets <= 0 || cfg.Size != sets*cfg.LineSize*cfg.Assoc {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	if !pow2(sets) {
		panic(fmt.Sprintf("cache: set count %d is not a power of two (%+v)", sets, cfg))
	}
	c := &Cache{
		cfg:   cfg,
		lines: make([]Line, sets*cfg.Assoc),
	}
	for c.cfg.LineSize>>c.lineShift > 1 {
		c.lineShift++
	}
	c.setMask = uint64(sets - 1)
	return c
}

// Cfg returns the cache's configuration.
func (c *Cache) Cfg() Config { return c.cfg }

// LineAddr rounds addr down to this cache's line size.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineSize-1) }

// SetIndex returns the set index for addr.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.lineShift) & c.setMask)
}

// set returns the ways of the set addr maps to.
func (c *Cache) set(addr uint64) []Line {
	i := c.SetIndex(addr) * c.cfg.Assoc
	return c.lines[i : i+c.cfg.Assoc : i+c.cfg.Assoc]
}

// Probe returns the line holding addr without updating LRU, or nil.
func (c *Cache) Probe(addr uint64) *Line {
	tag := c.LineAddr(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Access looks up addr, updating LRU and hit/miss statistics. Returns the
// line on hit, nil on miss.
func (c *Cache) Access(addr uint64) *Line {
	if l := c.Probe(addr); l != nil {
		c.clock++
		l.stamp = c.clock
		c.Hits++
		return l
	}
	c.Misses++
	return nil
}

// Fill installs addr with the given state, returning the evicted line (its
// State is Invalid if the way was free). The new line becomes MRU.
func (c *Cache) Fill(addr uint64, st State) (evicted Line) {
	tag := c.LineAddr(addr)
	set := c.set(addr)
	victim := 0
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == tag {
			// Refill of a present line: just update state/LRU.
			set[i].State = st
			c.clock++
			set[i].stamp = c.clock
			return Line{}
		}
		if set[i].State == Invalid {
			victim = i
		} else if set[victim].State != Invalid && set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	evicted = set[victim]
	if evicted.State == Invalid {
		c.valid++
	}
	c.clock++
	set[victim] = Line{Tag: tag, State: st, stamp: c.clock}
	return evicted
}

// WouldEvict returns the line that a Fill of addr would displace, without
// modifying anything. The returned line has State Invalid if a free way or
// the line itself is present.
func (c *Cache) WouldEvict(addr uint64) Line {
	tag := c.LineAddr(addr)
	set := c.set(addr)
	victim := 0
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == tag {
			return Line{}
		}
		if set[i].State == Invalid {
			return Line{}
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	return set[victim]
}

// Invalidate removes addr's line, returning its prior state.
func (c *Cache) Invalidate(addr uint64) State {
	if l := c.Probe(addr); l != nil {
		st := l.State
		l.State = Invalid
		c.valid--
		return st
	}
	return Invalid
}

// SetState changes the state of a present line (no-op if absent).
func (c *Cache) SetState(addr uint64, st State) {
	if l := c.Probe(addr); l != nil {
		if st == Invalid {
			c.valid--
		}
		l.State = st
	}
}

// InvalidateRange invalidates every line of this cache overlapping
// [base, base+size), returning true if any invalidated line was Modified.
// Used to maintain inclusion when an outer cache loses a (larger) line.
func (c *Cache) InvalidateRange(base uint64, size int) (anyDirty bool) {
	for a := c.LineAddr(base); a < base+uint64(size); a += uint64(c.cfg.LineSize) {
		if c.Invalidate(a) == Modified {
			anyDirty = true
		}
	}
	return anyDirty
}

// DowngradeRange moves every Modified/Exclusive line overlapping
// [base, base+size) to Shared, returning true if any was Modified.
func (c *Cache) DowngradeRange(base uint64, size int) (anyDirty bool) {
	for a := c.LineAddr(base); a < base+uint64(size); a += uint64(c.cfg.LineSize) {
		if l := c.Probe(a); l != nil {
			if l.State == Modified {
				anyDirty = true
			}
			if l.State.Writable() {
				l.State = Shared
			}
		}
	}
	return anyDirty
}

// Flush invalidates the entire cache (test helper).
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = Line{}
	}
	c.valid = 0
}

// ValidLines returns the number of non-Invalid lines. The count is
// maintained incrementally by Fill/Invalidate/SetState/Flush rather than
// scanned, so the valid_lines gauge is O(1) per metrics snapshot.
func (c *Cache) ValidLines() int { return c.valid }

// Lines calls fn for every valid line (order unspecified). Used by the
// machine-level coherence invariant checker.
func (c *Cache) Lines(fn func(tag uint64, st State)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(c.lines[i].Tag, c.lines[i].State)
		}
	}
}

// RegisterMetrics publishes the cache's counters under the given scope
// (<scope>.hits, <scope>.misses) plus a snapshot-time occupancy gauge.
func (c *Cache) RegisterMetrics(s *stats.Scope) {
	s.CounterFunc("hits", func() uint64 { return c.Hits })
	s.CounterFunc("misses", func() uint64 { return c.Misses })
	s.GaugeFunc("valid_lines", func() float64 { return float64(c.valid) })
}
