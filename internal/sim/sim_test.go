package sim

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// closures is the tests' fire function: each descriptor made by desc
// names, in its first argument, the closure to run when it fires.
type closures struct{ fns []func() }

func (c *closures) desc(fn func()) Desc {
	c.fns = append(c.fns, fn)
	return Desc{Kind: 1, Args: [6]uint64{uint64(len(c.fns) - 1)}}
}

func (c *closures) fire(d Desc) { c.fns[d.Args[0]]() }

// newTestEngine returns a skipping engine that fires closures.
func newTestEngine() (*Engine, *closures) {
	c := &closures{}
	return NewEngine(c.fire), c
}

func TestEngineStepOrdering(t *testing.T) {
	e := NewEngine(nil)
	var order []string
	e.AddClocked(ClockedFunc(func(now Cycle) { order = append(order, "a") }), 1, 0)
	e.AddClocked(ClockedFunc(func(now Cycle) { order = append(order, "b") }), 1, 0)
	e.Step()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("components ticked out of registration order: %v", order)
	}
}

// TestEngineClockDividers pins the clock-divider rule on both engines: a
// component registered with (period, phase) ticks exactly at the cycles
// where now%period == phase%period, once each.
func TestEngineClockDividers(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    *Engine
	}{{"skipping", NewEngine(nil)}, {"reference", NewReferenceEngine(nil)}} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			clocks := []struct{ period, phase Cycle }{{1, 0}, {2, 0}, {4, 0}, {2, 1}, {4, 3}, {5, 7}}
			counts := make([]int, len(clocks))
			for i, c := range clocks {
				e.AddClocked(ClockedFunc(func(now Cycle) {
					if now%c.period != c.phase%c.period {
						t.Errorf("period %d phase %d ticked at cycle %d", c.period, c.phase, now)
					}
					counts[i]++
				}), c.period, c.phase)
			}
			for i := 0; i < 100; i++ {
				e.Step()
			}
			for i, c := range clocks {
				// Cycles 1..100 matching now%period == phase%period.
				want := 0
				for now := Cycle(1); now <= 100; now++ {
					if now%c.period == c.phase%c.period {
						want++
					}
				}
				if counts[i] != want {
					t.Errorf("period %d phase %d: %d ticks in 100 cycles, want %d", c.period, c.phase, counts[i], want)
				}
			}
		})
	}
}

func TestEngineEventsFireInOrder(t *testing.T) {
	e, c := newTestEngine()
	var got []int
	e.Schedule(5, c.desc(func() { got = append(got, 1) }))
	e.Schedule(3, c.desc(func() { got = append(got, 0) }))
	e.Schedule(5, c.desc(func() { got = append(got, 2) })) // same cycle: FIFO by scheduling
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.PendingEvents() != 0 {
		t.Fatalf("pending events remain: %d", e.PendingEvents())
	}
}

func TestEngineAfterAndStop(t *testing.T) {
	e, c := newTestEngine()
	fired := false
	e.After(10, c.desc(func() { fired = true; e.Stop() }))
	n := e.Run(1000)
	if !fired {
		t.Fatal("event did not fire")
	}
	if n != 10 {
		t.Fatalf("ran %d cycles, want 10", n)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e, c := newTestEngine()
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, c.desc(func() {}))
}

func TestEngineEventDuringEvent(t *testing.T) {
	e, c := newTestEngine()
	hits := 0
	e.Schedule(1, c.desc(func() {
		e.Schedule(2, c.desc(func() { hits++ }))
	}))
	e.Step()
	e.Step()
	if hits != 1 {
		t.Fatalf("nested event fired %d times, want 1", hits)
	}
}

// TestAfterZeroAndScheduleNow pins the After(0)/Schedule(now) pair: After
// rounds a zero delay up to one cycle (the callback fires on the next
// cycle, never the current one), while the equivalent Schedule(now) call
// panics.
func TestAfterZeroAndScheduleNow(t *testing.T) {
	e, c := newTestEngine()
	e.Step() // now = 1
	var firedAt Cycle
	e.After(0, c.desc(func() { firedAt = e.Now() }))
	e.Step()
	if firedAt != 2 {
		t.Fatalf("After(0) fired at cycle %d, want 2 (next cycle)", firedAt)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(now) did not panic")
		}
	}()
	e.Schedule(e.Now(), c.desc(func() {}))
}

// TestAfterWraparoundPanics pins that a delay large enough to wrap the
// Cycle range panics instead of silently landing in the past.
func TestAfterWraparoundPanics(t *testing.T) {
	e, c := newTestEngine()
	// With no components and no events the engine jumps straight to the
	// horizon, so simulated time can reach the top of the Cycle range.
	e.Run(NoWork - 10)
	if e.Now() != NoWork-10 {
		t.Fatalf("empty engine ran to %d, want %d", e.Now(), NoWork-10)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrapped After did not panic")
		}
	}()
	e.After(20, c.desc(func() {}))
}

// quiescentComp is idle (NoWork) unless busyUntil lies ahead; its per-cycle
// delta is a tick counter that Skipped applies in bulk.
type quiescentComp struct {
	busyUntil Cycle
	cycles    uint64  // ticks seen + ticks skipped
	ticked    []Cycle // cycles where Tick actually ran
}

func (c *quiescentComp) Tick(now Cycle) {
	c.cycles++
	c.ticked = append(c.ticked, now)
}

func (c *quiescentComp) NextWork(now Cycle) (Cycle, bool) {
	if now < c.busyUntil {
		return 0, false
	}
	return NoWork, true
}

func (c *quiescentComp) Skipped(n uint64, _ Cycle) { c.cycles += n }

func TestEngineSkipsQuiescentCycles(t *testing.T) {
	e, fns := newTestEngine()
	c := &quiescentComp{busyUntil: 5}
	h := e.AddLazy(c, 1, 0)
	woke := Cycle(0)
	e.Schedule(1000, fns.desc(func() {
		h.Settle()
		woke = e.Now()
		c.busyUntil = e.Now() + 3
	}))
	n := e.Run(2000)
	if n != 2000 || e.Now() != 2000 {
		t.Fatalf("ran %d cycles to %d, want 2000", n, e.Now())
	}
	e.FlushDeferred()
	if woke != 1000 {
		t.Fatalf("event fired at %d, want 1000", woke)
	}
	if c.cycles != 2000 {
		t.Fatalf("per-cycle delta drifted: %d of 2000", c.cycles)
	}
	// Ticks actually execute only while busy (cycles 1-4 and 1000-1002)
	// plus the landing cycle of each jump.
	if len(c.ticked) >= 100 {
		t.Fatalf("quiescent stretch was not skipped: %d real ticks", len(c.ticked))
	}
	if e.SkippedCycles() == 0 {
		t.Fatal("engine reports no skipped cycles")
	}
}

// roundingComp pins the period rounding: a component idle until cycle 10
// but clocked every 3 cycles must next tick at 12, and its three elided
// ticks (3, 6, 9) must arrive through Skipped.
type roundingComp struct {
	ticked []Cycle
	skips  uint64
}

func (c *roundingComp) Tick(now Cycle) { c.ticked = append(c.ticked, now) }
func (c *roundingComp) NextWork(now Cycle) (Cycle, bool) {
	if now < 10 {
		return 10, true
	}
	return 0, false
}
func (c *roundingComp) Skipped(n uint64, _ Cycle) { c.skips += n }

func TestSkipRoundsUpToPeriod(t *testing.T) {
	e := NewEngine(nil)
	c := &roundingComp{}
	e.AddLazy(c, 3, 0)
	e.Run(30)
	want := []Cycle{12, 15, 18, 21, 24, 27, 30}
	if len(c.ticked) != len(want) {
		t.Fatalf("ticked at %v, want %v", c.ticked, want)
	}
	for i, w := range want {
		if c.ticked[i] != w {
			t.Fatalf("ticked at %v, want %v", c.ticked, want)
		}
	}
	if c.skips != 3 {
		t.Fatalf("skipped %d ticks, want 3 (cycles 3, 6, 9)", c.skips)
	}
}

// scriptedComp drives a pseudo-random busy/idle pattern for the
// differential test below. Randomness is consumed only during busy ticks,
// which both engines execute identically, so the script unfolds the same
// way on each.
type scriptedComp struct {
	e      *Engine
	fns    *closures
	h      *TickHandle
	r      *Rand
	busy   Cycle
	cycles uint64
	ticked []Cycle
}

func (c *scriptedComp) Tick(now Cycle) {
	c.cycles++
	if now >= c.busy {
		return
	}
	c.ticked = append(c.ticked, now)
	if c.r.Intn(3) == 0 {
		delay := Cycle(c.r.Intn(60) + 1)
		ext := Cycle(c.r.Intn(20) + 1)
		c.e.After(delay, c.fns.desc(func() {
			c.h.Settle()
			if until := c.e.Now() + ext; until > c.busy {
				c.busy = until
			}
		}))
	}
}

func (c *scriptedComp) NextWork(now Cycle) (Cycle, bool) {
	if now < c.busy {
		return 0, false
	}
	return NoWork, true
}

func (c *scriptedComp) Skipped(n uint64, _ Cycle) { c.cycles += n }

// TestSkippingMatchesReference runs the same randomized busy/idle script on
// the skipping and reference engines and requires identical observable
// behaviour: same active-tick trace, same per-cycle counters, same final
// time — while the skipping engine actually skips.
func TestSkippingMatchesReference(t *testing.T) {
	run := func(newEngine func(func(Desc)) *Engine) (*scriptedComp, *scriptedComp, *quiescentComp) {
		fns := &closures{}
		e := newEngine(fns.fire)
		a := &scriptedComp{e: e, fns: fns, r: NewRand(11), busy: 20}
		b := &scriptedComp{e: e, fns: fns, r: NewRand(23), busy: 35}
		slow := &quiescentComp{} // period 8, permanently idle
		a.h = e.AddLazy(a, 1, 0)
		b.h = e.AddLazy(b, 2, 1)
		e.AddLazy(slow, 8, 0)
		e.Run(5000)
		e.FlushDeferred()
		return a, b, slow
	}
	fa, fb, fs := run(NewEngine)
	ra, rb, rs := run(NewReferenceEngine)

	cmp := func(name string, f, r *scriptedComp) {
		if f.cycles != r.cycles {
			t.Fatalf("%s: cycle counter %d vs reference %d", name, f.cycles, r.cycles)
		}
		if len(f.ticked) != len(r.ticked) {
			t.Fatalf("%s: %d active ticks vs reference %d", name, len(f.ticked), len(r.ticked))
		}
		for i := range f.ticked {
			if f.ticked[i] != r.ticked[i] {
				t.Fatalf("%s: active tick %d at cycle %d vs reference %d",
					name, i, f.ticked[i], r.ticked[i])
			}
		}
	}
	cmp("comp-a", fa, ra)
	cmp("comp-b", fb, rb)
	if fs.cycles != rs.cycles {
		t.Fatalf("slow comp counter %d vs reference %d", fs.cycles, rs.cycles)
	}
}

// TestEventHeapOrder stress-tests the 4-ary heap: many events with random
// due times must fire in (time, FIFO) order.
func TestEventHeapOrder(t *testing.T) {
	e, c := newTestEngine()
	r := NewRand(5)
	type stamp struct {
		at  Cycle
		seq int
	}
	var fired []stamp
	for i := 0; i < 2000; i++ {
		at := Cycle(r.Intn(500) + 1)
		s := stamp{at: at, seq: i}
		e.Schedule(at, c.desc(func() { fired = append(fired, s) }))
	}
	e.Run(600)
	if len(fired) != 2000 {
		t.Fatalf("fired %d of 2000 events", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("event %d (%v) fired after %v", i, b, a)
		}
	}
}

// TestEventLayout pins the event heap's element: no field may hold a
// pointer (a descriptor handle, not a callback, so heap sifts take no
// write barriers and the collector never scans the heap) and the struct
// stays 48 bytes.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 48 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 48", n)
	}
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if hasPointers(f.Type) {
			t.Errorf("event.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

// hasPointers reports whether a value of type t contains anything the
// garbage collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded generators diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values of 1000", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(1)
	child := r.Fork()
	// Child continues deterministically regardless of parent use.
	c1 := child.Uint64()
	child2 := NewRand(1).Fork()
	if child2.Uint64() != c1 {
		t.Fatal("fork is not deterministic")
	}
}
