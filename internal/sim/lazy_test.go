package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// lazyTestComp records every live tick and every bulk settlement so tests
// can assert exactly which cycles were elided and how they were settled.
type lazyTestComp struct {
	ticks []Cycle
	skipN []uint64
	skipL []Cycle
	next  Cycle // NextWork answer while not busy
	busy  bool
}

func (c *lazyTestComp) Tick(now Cycle) { c.ticks = append(c.ticks, now) }
func (c *lazyTestComp) NextWork(now Cycle) (Cycle, bool) {
	if c.busy {
		return 0, false
	}
	return c.next, true
}
func (c *lazyTestComp) Skipped(n uint64, last Cycle) {
	c.skipN = append(c.skipN, n)
	c.skipL = append(c.skipL, last)
}

// busyDriver is a plain Clocked component: it pins the engine to exact
// stepping so any elision observed on the lazy component is the lazy path,
// not a global jump.
type busyDriver struct{ ticks int }

func (d *busyDriver) Tick(now Cycle) { d.ticks++ }

// A lazy component with no self-generated work must not tick while a busy
// neighbour keeps the engine stepping; FlushDeferred settles the whole
// window with the last elided cycle, not the flush cycle.
func TestLazyDeferralFlush(t *testing.T) {
	e := NewEngine(nil)
	d := &busyDriver{}
	c := &lazyTestComp{next: NoWork}
	e.AddClocked(d, 1, 0)
	e.AddLazy(c, 1, 0)
	e.Run(10)
	if len(c.ticks) != 0 {
		t.Fatalf("lazy comp ticked at %v; want no live ticks", c.ticks)
	}
	e.FlushDeferred()
	if len(c.skipN) != 1 || c.skipN[0] != 10 || c.skipL[0] != 10 {
		t.Fatalf("flush settled (n,last) = (%v,%v); want (10,10)", c.skipN, c.skipL)
	}
	if d.ticks != 10 {
		t.Fatalf("driver ticked %d times; want 10 (no global jump)", d.ticks)
	}
	// The flush left the component due on the next cycle; once it has
	// work it ticks live there (still idle, it would just defer again).
	c.busy = true
	e.Step()
	if len(c.ticks) != 1 || c.ticks[0] != 11 {
		t.Fatalf("post-flush tick at %v; want [11]", c.ticks)
	}
}

// External input mid-window (an event calling Settle before mutating the
// component) splits the window: elided ticks settle up to the cycle before
// the input, and the component ticks live from the input cycle on.
func TestLazyDeferralSettleOnEvent(t *testing.T) {
	e, fns := newTestEngine()
	d := &busyDriver{}
	c := &lazyTestComp{next: NoWork}
	e.AddClocked(d, 1, 0)
	h := e.AddLazy(c, 1, 0)
	e.Schedule(6, fns.desc(func() {
		h.Settle()
		c.busy = true
	}))
	e.Run(10)
	if len(c.skipN) != 1 || c.skipN[0] != 5 || c.skipL[0] != 5 {
		t.Fatalf("event settled (n,last) = (%v,%v); want (5,5)", c.skipN, c.skipL)
	}
	want := []Cycle{6, 7, 8, 9, 10}
	if len(c.ticks) != len(want) {
		t.Fatalf("live ticks %v; want %v", c.ticks, want)
	}
	for i, at := range want {
		if c.ticks[i] != at {
			t.Fatalf("live ticks %v; want %v", c.ticks, want)
		}
	}
}

// Input from a component that ticks later in the same cycle must include
// the current cycle in the settlement: the reference engine would already
// have ticked the earlier component (idly) before the input arrived.
func TestLazyDeferralSettleFromLaterComponent(t *testing.T) {
	e := NewEngine(nil)
	c := &lazyTestComp{next: NoWork}
	h := e.AddLazy(c, 1, 0) // index 0: slot passes before the driver's
	e.AddClocked(ClockedFunc(func(now Cycle) {
		if now == 6 {
			h.Settle()
			c.busy = true
		}
	}), 1, 0)
	e.Run(10)
	if len(c.skipN) != 1 || c.skipN[0] != 6 || c.skipL[0] != 6 {
		t.Fatalf("settled (n,last) = (%v,%v); want (6,6): cycle 6's idle tick precedes the input", c.skipN, c.skipL)
	}
	if len(c.ticks) == 0 || c.ticks[0] != 7 {
		t.Fatalf("first live tick at %v; want cycle 7", c.ticks)
	}
}

// A finite next-work answer bounds the window: the declared cycle runs as
// a live tick with the elided prefix settled first.
func TestLazyDeferralWindowEnd(t *testing.T) {
	e := NewEngine(nil)
	d := &busyDriver{}
	c := &lazyTestComp{next: 4}
	e.AddClocked(d, 1, 0)
	e.AddLazy(c, 1, 0)
	e.Run(6)
	if len(c.skipN) != 1 || c.skipN[0] != 3 || c.skipL[0] != 3 {
		t.Fatalf("window end settled (n,last) = (%v,%v); want (3,3)", c.skipN, c.skipL)
	}
	// NextWork keeps answering 4, which is never in the future again: the
	// component ticks live from its declared work cycle on.
	want := []Cycle{4, 5, 6}
	if len(c.ticks) != len(want) {
		t.Fatalf("live ticks %v; want %v", c.ticks, want)
	}
	for i, at := range want {
		if c.ticks[i] != at {
			t.Fatalf("live ticks %v; want %v", c.ticks, want)
		}
	}
}

// The reference engine hands out inert handles: every tick runs live.
func TestLazyDeferralReferenceInert(t *testing.T) {
	e := NewReferenceEngine(nil)
	c := &lazyTestComp{next: NoWork}
	h := e.AddLazy(c, 1, 0)
	e.Run(5)
	h.Settle()
	e.FlushDeferred()
	if len(c.ticks) != 5 || len(c.skipN) != 0 {
		t.Fatalf("reference engine: %d ticks, %d settlements; want 5, 0", len(c.ticks), len(c.skipN))
	}
}

// periodComp is a lazily-ticked component on a divided clock, like a
// memory controller: a tick with input pending consumes one unit of it,
// an idle tick changes nothing but the log. Every tick, run live or
// settled in bulk, is logged with the cycle it belongs to and whether it
// saw input, so a skipping engine's log must equal the reference
// engine's entry for entry.
type periodComp struct {
	period Cycle
	work   int
	live   int
	log    []periodTick
}

type periodTick struct {
	at   Cycle
	busy bool
}

func (c *periodComp) Tick(now Cycle) {
	c.live++
	c.log = append(c.log, periodTick{now, c.work > 0})
	if c.work > 0 {
		c.work--
	}
}

func (c *periodComp) NextWork(Cycle) (Cycle, bool) {
	if c.work > 0 {
		return 0, false
	}
	return NoWork, true
}

func (c *periodComp) Skipped(n uint64, last Cycle) {
	for k := Cycle(n); k > 0; k-- {
		c.log = append(c.log, periodTick{last - (k-1)*c.period, c.work > 0})
	}
}

// TestLazyDeferralAtControllerPeriods runs the lazy path at the periods
// the memory controllers tick at (2, 5 and 10 cycles, phase 1), with
// input landing one cycle before, at and one cycle after the component's
// slot. The input comes from an event (it fires before every tick of its
// cycle), from a component registered before the lazy one, or from one
// registered after it; event input also runs without a busy neighbour,
// so global jumps carry the open window between inputs. Every case must
// log the same ticks as the reference engine, and must have deferred.
func TestLazyDeferralAtControllerPeriods(t *testing.T) {
	const phase = 1
	type source struct {
		name string
		reg  int // feeder registered before (-1) or after (+1) the component; 0 = events
		busy bool
	}
	sources := []source{
		{"event", 0, true}, {"event-jumps", 0, false},
		{"earlier-component", -1, false}, {"later-component", +1, false},
	}
	for _, period := range []Cycle{2, 5, 10} {
		for _, src := range sources {
			for _, off := range []int{-1, 0, 1} {
				period, src, off := period, src, off
				t.Run(fmt.Sprintf("period%d/%s/offset%+d", period, src.name, off), func(t *testing.T) {
					// Input around the 3rd slot, and twice around the 7th.
					var inputs []Cycle
					for _, k := range []Cycle{3, 7, 7} {
						inputs = append(inputs, Cycle(int(phase+k*period)+off))
					}
					run := func(reference bool) *periodComp {
						fns := &closures{}
						e := NewEngine(fns.fire)
						if reference {
							e = NewReferenceEngine(fns.fire)
						}
						c := &periodComp{period: period}
						var h *TickHandle
						input := func() {
							h.Settle()
							c.work++
						}
						feed := ClockedFunc(func(now Cycle) {
							for _, at := range inputs {
								if at == now {
									input()
								}
							}
						})
						if src.busy {
							e.AddClocked(&busyDriver{}, 1, 0)
						}
						if src.reg < 0 {
							e.AddClocked(feed, 1, 0)
						}
						h = e.AddLazy(c, period, phase)
						if src.reg > 0 {
							e.AddClocked(feed, 1, 0)
						}
						if src.reg == 0 {
							for _, at := range inputs {
								e.Schedule(at, fns.desc(input))
							}
						}
						e.Run(phase + 10*period)
						e.FlushDeferred()
						return c
					}
					ref, lazy := run(true), run(false)
					if !reflect.DeepEqual(lazy.log, ref.log) {
						t.Fatalf("ticks diverge from the reference engine:\n lazy      %v\n reference %v", lazy.log, ref.log)
					}
					if lazy.live >= len(lazy.log) {
						t.Fatalf("all %d ticks ran live; the lazy path deferred none", lazy.live)
					}
				})
			}
		}
	}
}
