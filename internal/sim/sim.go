package sim

import "fmt"

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle uint64

// NoWork is the Cycle value a Lazy component's NextWork returns (with ok =
// true) to declare that it will generate no work on its own at any future
// cycle: only an external input — a scheduled event or another component's
// activity — can give it something to do.
const NoWork = ^Cycle(0)

// Clocked is a component stepped by the engine. Tick is invoked once per
// period (see AddClocked) with the current cycle.
type Clocked interface {
	Tick(now Cycle)
}

// ClockedFunc adapts a plain function to the Clocked interface.
type ClockedFunc func(now Cycle)

// Tick implements Clocked.
func (f ClockedFunc) Tick(now Cycle) { f(now) }

// Lazy is a clocked component that can prove idleness and settle its
// elided ticks in bulk (see AddLazy).
//
// NextWork(now) returns (c, true) when ticking the component at any cycle
// strictly before c would change no state beyond the per-cycle deltas
// Skipped re-applies. Returning NoWork means "no self-generated work
// ever"; returning ok = false means busy — no tick may be elided. The
// contract is one-sided: a component may over-report (claim busy, or name
// a next-work cycle earlier than its real one) and only forfeit speed; it
// must never under-report, or it breaks the reference-engine equivalence
// the differential tests pin. See DESIGN.md, "Kernel fast path".
//
// Skipped(n, last) must apply exactly the deltas of n elided idle ticks
// (cycle counters, occupancy samples, round-robin pointers). last is the
// cycle of the final elided tick: since the component's observable state
// is frozen across the window, any per-cycle predicate the deltas depend
// on answers at last exactly as it did at every elided cycle — but the
// engine's own clock may already have moved past the window (lazy
// settlement), so implementations must use last, never Engine.Now.
type Lazy interface {
	Clocked
	NextWork(now Cycle) (Cycle, bool)
	Skipped(n uint64, last Cycle)
}

type clockedEntry struct {
	c        Clocked
	l        Lazy   // non-nil when registered with AddLazy on a skipping engine
	period   Cycle  // tick every `period` cycles
	phase    Cycle  // tick when now%period == phase
	tag      uint64 // global registration tag (keyed engines; see EnableKeys)
	nextTick Cycle  // precomputed next due cycle

	// Lazy-tick state. While deferring, nextTick holds the deferral
	// window's end and settleBase the first elided due cycle.
	deferring  bool
	settleBase Cycle
}

type event struct {
	at Cycle
	// pos is the scheduling-context key (see Pos): all-zero on unkeyed
	// engines, where ordering degenerates to the classic (at, seq) FIFO.
	pos [3]uint64
	seq uint64
	// desc is the event itself: an index into the engine's descriptor
	// arena (see Desc in state.go), handed to the engine's fire function
	// when the event comes due. Descriptors are 56 bytes and the event
	// struct is copied on every heap push/pop/sift, so keeping them out of
	// line keeps the copy cost down; keeping the handle an integer leaves
	// the heap without a single pointer, so heap swaps take no write
	// barriers and the collector never scans it.
	desc uint32
}

// eventLess orders events by due time, then scheduling context, then FIFO
// sequence. On an unkeyed engine every pos is zero and the order is the
// original (at, seq); on a keyed engine the pos lanes reproduce the global
// serial scheduling order even when the events were scheduled by different
// shards (see EnableKeys).
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pos != b.pos {
		if a.pos[0] != b.pos[0] {
			return a.pos[0] < b.pos[0]
		}
		if a.pos[1] != b.pos[1] {
			return a.pos[1] < b.pos[1]
		}
		return a.pos[2] < b.pos[2]
	}
	return a.seq < b.seq
}

// Engine owns simulated time. Create one per machine with NewEngine (or
// NewReferenceEngine for the always-tick oracle the differential tests
// compare against).
//
// The event queue is a monomorphic 4-ary min-heap of event values: no
// interface boxing, no per-Push allocation once the backing slice has
// grown to the high-water mark.
//
//simlint:shardlocal -- each shard drives its own engine; cross-shard event injection happens only through ScheduleKeyed at the quantum barrier, with all shards parked
type Engine struct {
	now       Cycle
	seq       uint64
	fire      func(Desc) // runs each due event (see NewEngine)
	comps     []clockedEntry
	events    []event // 4-ary min-heap ordered by eventLess
	stopped   bool
	reference bool // AddLazy registers plain components (NewReferenceEngine)
	skipped   uint64

	// Keyed-scheduling state (sharded machines; see EnableKeys). ctx is the
	// engine's current execution-context position: every Schedule captures
	// it into the event's pos lanes so same-cycle events — including
	// deliveries injected by another shard via ScheduleKeyed — fire in the
	// exact order a single serial engine would have fired them.
	keyed   bool
	ctx     [3]uint64
	tagBase uint64

	// descs is the arena backing the out-of-line Desc records events carry
	// (see the event struct); an event's desc handle is an index into it.
	// descFree recycles handles: a fired or discarded event's slot returns
	// here and the next Schedule-family call reuses it, so scheduling is
	// allocation-free once the arena has grown to the high-water mark.
	// Engine-local, like the event heap itself — and pointer-free, so the
	// collector scans neither.
	descs    []Desc
	descFree []uint32

	// scanPos is the number of clocked components whose tick slot for the
	// current cycle has already passed: 0 while the cycle's events fire, i
	// while comps[i] is being examined, len(comps) between Steps. Lazy
	// settlement uses it to decide whether an external input landed before
	// or after the reference engine would have ticked the component this
	// cycle.
	scanPos int
}

// NewEngine returns an engine at cycle 0 with no components. fire runs
// every scheduled event when it comes due, in the engine's firing order:
// the owner of the engine routes each descriptor to the component that
// scheduled it. Run and Advance skip quiescent cycles and lazy components
// defer idle ticks (see AddLazy); behaviour is defined to be identical to
// the reference engine's.
func NewEngine(fire func(Desc)) *Engine {
	return &Engine{fire: fire}
}

// NewReferenceEngine returns an engine whose AddLazy registers a plain
// component with an inert handle — its one difference from NewEngine — so
// every component ticks live at every due cycle, and a due tick bounds
// every skip (on a machine, whose cores tick every cycle, Advance, Run and
// JumpTo step every cycle and SkipBound answers the next one). Everything
// else is the skipping engine's code. It exists as the behavioural oracle
// for the skipping engine: the differential tests run both over the bench
// suite and assert equal cycle counts and byte-identical metrics.
func NewReferenceEngine(fire func(Desc)) *Engine {
	return &Engine{fire: fire, reference: true}
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// SkippedCycles reports how many cycles the engine has elided so far. A
// reference machine elides none itself (its cores tick every cycle), but
// one whose state was imported from a skipping engine's (ImportState)
// keeps the count it inherited.
func (e *Engine) SkippedCycles() uint64 { return e.skipped }

// tickCtx marks a context position as a component tick (bit 63 of the
// second lane). Tick positions can never collide with event-child
// positions, whose second lane holds a doubled schedule cycle (< 2^63).
const tickCtx = uint64(1) << 63

// EnableKeys switches the engine to keyed event ordering for intra-run
// sharding (DESIGN.md §13). Clocked components registered after this call
// are tagged tagBase, tagBase+1, ... — the caller passes each shard's
// offset into the single global registration order a serial engine would
// have used, making tags unique machine-wide.
//
// On a keyed engine every scheduled event carries the scheduling context's
// position, a three-lane key that is totally ordered across shards:
//
//	tick of component tag g at cycle c  -> (2c+1, tickCtx|g, 0)
//	firing of event with key K at cycle c -> (2c,  K.pos[0], K.pos[1])
//	outside Step (construction, attach) -> (0, 0, 0)
//
// Within one engine the positions are non-decreasing in scheduling order,
// so keyed ordering is identical to the classic (at, seq) FIFO; across
// engines two positions are equal only for the same component, which lives
// on exactly one shard — so cross-shard deliveries injected with
// ScheduleKeyed interleave with local events exactly as on one big serial
// engine, and the per-engine seq lane never decides a cross-shard tie.
func (e *Engine) EnableKeys(tagBase uint64) {
	e.keyed = true
	e.ctx = [3]uint64{0, 0, 0}
	for i := range e.comps {
		e.comps[i].tag = tagBase + uint64(i)
	}
	e.tagBase = tagBase
}

// Pos returns the engine's current execution-context position (all-zero
// unless EnableKeys is active). The network's cross-shard staging captures
// it at Send time so a replayed delivery carries its sender's global
// scheduling position.
func (e *Engine) Pos() [3]uint64 { return e.ctx }

// ScheduleKeyed fires d at the given absolute cycle with an explicit
// scheduling-context position — the cross-shard injection primitive: the
// quantum coordinator replays a staged send by scheduling its delivery on
// the destination shard's engine under the sender's captured position.
func (e *Engine) ScheduleKeyed(at Cycle, pos [3]uint64, d Desc) {
	if at <= e.now {
		panic(fmt.Sprintf("sim: schedule at %d but now is %d", at, e.now))
	}
	e.seq++
	e.pushEvent(event{at: at, pos: pos, seq: e.seq, desc: e.takeDesc(d)})
}

// SkipBound returns the earliest cycle (capped at limit) at which anything
// observable can happen on this engine — the same bound Advance jumps to:
// the next due event, the next tick of a plain or busy component, or the
// first scheduled tick at or after an idle lazy component's declared
// next-work cycle. It is read-only: the lockstep coordinator polls every
// shard's bound and jumps them in unison to the minimum. A return of now+1
// means the very next cycle is (or may be) active.
func (e *Engine) SkipBound(limit Cycle) Cycle {
	floor := e.now + 1
	target := limit
	if len(e.events) > 0 && e.events[0].at < target {
		target = e.events[0].at
	}
	if target <= floor {
		return floor
	}
	for i := range e.comps {
		ce := &e.comps[i]
		bound := ce.nextTick
		if ce.deferring {
			// nextTick is the deferral window's end — already the first
			// cycle this component can act; no need to consult it again.
		} else if ce.l != nil {
			next, ok := ce.l.NextWork(e.now)
			if !ok {
				return floor
			}
			if next > ce.nextTick {
				if next >= target {
					continue
				}
				// First scheduled tick at or after the next-work cycle.
				bound = ce.nextTick + (next-ce.nextTick+ce.period-1)/ce.period*ce.period
			}
		}
		if bound < target {
			target = bound
		}
		if target <= floor {
			return floor
		}
	}
	return target
}

// JumpTo elides the cycles in (now, target): afterwards Now is target-1
// and the next Step executes target as an ordinary exact cycle. Every lazy
// component whose ticks fell in the window has its nextTick advanced past
// it and is handed the count of ticks it missed, to apply their per-cycle
// deltas in bulk. A target at or below now+1 is a no-op. Callers must have
// established — e.g. via SkipBound on every coupled engine — that nothing
// observable happens before target.
func (e *Engine) JumpTo(target Cycle) {
	if target <= e.now+1 {
		return
	}
	skipTo := target - 1
	e.skipped += uint64(skipTo - e.now)
	e.now = skipTo
	for i := range e.comps {
		ce := &e.comps[i]
		if ce.nextTick > skipTo {
			// Every plain component (SkipBound never passes its next tick),
			// and every deferring one: SkipBound never passes a deferral
			// window's end, so open windows ride through unsettled.
			continue
		}
		missed := uint64((skipTo-ce.nextTick)/ce.period) + 1
		last := ce.nextTick + Cycle(missed-1)*ce.period
		ce.nextTick += Cycle(missed) * ce.period
		ce.l.Skipped(missed, last)
	}
}

// NumClocked reports how many clocked components are registered (the
// machine uses it to derive per-shard tag bases).
func (e *Engine) NumClocked() int { return len(e.comps) }

// AddClocked registers a component ticked every period cycles (period >= 1),
// starting at cycle phase%period. Components registered earlier tick earlier
// within a cycle. Every tick of a plain component is treated as work,
// bounding any skip; AddLazy registers one the engine may elide.
func (e *Engine) AddClocked(c Clocked, period, phase Cycle) {
	if period == 0 {
		panic("sim: clock period must be >= 1")
	}
	ce := clockedEntry{c: c, period: period, phase: phase % period}
	if e.keyed {
		ce.tag = e.tagBase + uint64(len(e.comps))
	}
	// First due cycle at or after the next Step's cycle.
	from := e.now + 1
	ce.nextTick = from + (ce.phase+period-from%period)%period
	e.comps = append(e.comps, ce)
}

// TickHandle lets a lazily-ticked component settle its own deferred ticks
// the moment external input arrives. Obtain one with AddLazy.
type TickHandle struct {
	e   *Engine
	idx int
}

// AddLazy registers a component like AddClocked, but lets the engine elide
// its idle ticks: global jumps skip it while it names no work before their
// target, and when it is due but reports future-only work the engine
// defers the tick — even while other components stay busy — and settles
// the elided ticks in bulk (via Skipped) when the window ends. The
// component must route every external input through the returned handle's
// Settle before mutating its state; engine-scheduled events the component
// targets at itself count as external input too. On the reference engine
// the component is registered plain and the handle is inert.
func (e *Engine) AddLazy(c Lazy, period, phase Cycle) *TickHandle {
	e.AddClocked(c, period, phase)
	i := len(e.comps) - 1
	if !e.reference {
		e.comps[i].l = c
	}
	return &TickHandle{e: e, idx: i}
}

// Settle applies any ticks of the component that were deferred up to the
// present, leaving it exactly as if the reference engine had ticked it
// idly on schedule. Callers invoke it before mutating the component's
// state from outside its own Tick; it is a no-op when nothing is
// deferred.
func (h *TickHandle) Settle() { h.e.settleIdx(h.idx) }

// settleIdx retires comps[i]'s deferral window. The window covers its due
// cycles up to but excluding the first one the component can still tick
// live: the current cycle if its slot has not passed yet (events are still
// firing, or the scan has not reached it), the next cycle otherwise.
func (e *Engine) settleIdx(i int) {
	ce := &e.comps[i]
	if !ce.deferring {
		return
	}
	limit := e.now
	if i < e.scanPos {
		limit = e.now + 1
	}
	if limit <= ce.settleBase {
		// The deferral began at this very slot, so its initiating NextWork
		// answer cannot have preceded this input.
		panic("sim: lazy settlement with no elided ticks")
	}
	missed := uint64((limit-1-ce.settleBase)/ce.period) + 1
	last := ce.settleBase + Cycle(missed-1)*ce.period
	ce.deferring = false
	ce.nextTick = ce.settleBase + Cycle(missed)*ce.period
	ce.l.Skipped(missed, last)
}

// FlushDeferred settles every open deferral window. Drivers call it
// before harvesting component state (statistics export, termination
// bookkeeping) so lazily-ticked components are exact at the read point.
func (e *Engine) FlushDeferred() {
	for i := range e.comps {
		if e.comps[i].deferring {
			e.settleIdx(i)
		}
	}
}

// lazyBound is the first due cycle at or after next for a component whose
// slots fall on now + k*period; next == NoWork (or anything within one
// period of it, where the rounding could wrap) defers indefinitely.
func lazyBound(now, next, period Cycle) Cycle {
	if next > NoWork-period {
		return NoWork
	}
	return now + (next-now+period-1)/period*period
}

// takeDesc copies d into an arena slot (reusing a freed one when
// available) and returns the handle an event will carry.
func (e *Engine) takeDesc(d Desc) uint32 {
	if n := len(e.descFree); n > 0 {
		h := e.descFree[n-1]
		e.descFree = e.descFree[:n-1]
		e.descs[h] = d
		return h
	}
	e.descs = append(e.descs, d)
	return uint32(len(e.descs) - 1)
}

// pushEvent inserts ev into the 4-ary heap.
func (e *Engine) pushEvent(ev event) {
	e.events = append(e.events, ev)
	h := e.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// popEvent removes and returns the earliest event.
func (e *Engine) popEvent() event {
	h := e.events
	ev := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.events = h[:last]
	e.siftDown(0)
	return ev
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[m]) {
				m = c
			}
		}
		if !eventLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Schedule fires d at the given absolute cycle. Scheduling in the past (or
// the current cycle, before events have drained) is an error that panics:
// same-cycle work should be done inline by the caller.
func (e *Engine) Schedule(at Cycle, d Desc) {
	if at <= e.now {
		panic(fmt.Sprintf("sim: schedule at %d but now is %d", at, e.now))
	}
	e.seq++
	e.pushEvent(event{at: at, pos: e.ctx, seq: e.seq, desc: e.takeDesc(d)})
}

// After fires d delay cycles from now. A zero delay is rounded up to one
// cycle — "as soon as possible, but never within the current cycle" —
// matching Schedule's rule that same-cycle work is done inline by the
// caller rather than through the event queue. After panics if now+delay
// wraps around the Cycle range, since the wrapped due-time would land in
// the past.
func (e *Engine) After(delay Cycle, d Desc) {
	if delay == 0 {
		delay = 1
	}
	at := e.now + delay
	if at < e.now {
		panic(fmt.Sprintf("sim: After(%d) at cycle %d wraps past the end of simulated time", delay, e.now))
	}
	e.Schedule(at, d)
}

// Stop makes Run return after the current cycle completes.
func (e *Engine) Stop() { e.stopped = true }

// Step advances one cycle: the cycle counter increments, due events fire in
// scheduling order, then clocked components whose period divides the new
// cycle tick in registration order. A due lazy component that reports only
// future work is not ticked: its slot opens a deferral window that closes —
// with the elided ticks settled in bulk — when the window's end arrives or
// external input touches the component, whichever happens first.
func (e *Engine) Step() {
	e.now++
	comps := e.comps
	e.scanPos = 0
	for len(e.events) > 0 && e.events[0].at <= e.now {
		ev := e.popEvent()
		if e.keyed {
			e.ctx = [3]uint64{2 * uint64(e.now), ev.pos[0], ev.pos[1]}
		}
		d := e.descs[ev.desc]
		e.descFree = append(e.descFree, ev.desc)
		e.fire(d)
	}
	for i := range comps {
		e.scanPos = i
		ce := &comps[i]
		if ce.nextTick != e.now {
			continue
		}
		if e.keyed {
			e.ctx = [3]uint64{2*uint64(e.now) + 1, tickCtx | ce.tag, 0}
		}
		if ce.deferring {
			// Window end reached without input: settle the elided ticks,
			// then examine the component live (it may defer again at once).
			e.settleIdx(i)
		}
		if ce.l != nil {
			// Input arriving earlier this cycle latched the component busy
			// (events fired and earlier components ticked already), so an
			// idle answer here proves the reference tick would be idle too.
			if next, ok := ce.l.NextWork(e.now); ok && next > e.now {
				ce.deferring = true
				ce.settleBase = e.now
				ce.nextTick = lazyBound(e.now, next, ce.period)
				continue
			}
		}
		ce.nextTick += ce.period
		ce.c.Tick(e.now)
	}
	e.scanPos = len(comps)
}

// Advance moves time forward to the next cycle at which anything can
// happen, but never to or past limit's end: it skips quiescent cycles and
// then executes exactly one real Step. With limit <= now+1 it degenerates
// to a single Step. Callers that poll external conditions (like
// machine.RunContext's Done check) bound their skips with limit so the
// poll cadence is unchanged.
func (e *Engine) Advance(limit Cycle) {
	e.JumpTo(e.SkipBound(limit))
	e.Step()
}

// Run advances until Stop is called or maxCycles elapse, returning the
// number of cycles executed, covering quiescent stretches with jumps.
func (e *Engine) Run(maxCycles Cycle) Cycle {
	start := e.now
	limit := start + maxCycles
	if limit < start {
		limit = NoWork // wrapped: effectively unbounded
	}
	for !e.stopped && e.now-start < maxCycles {
		e.Advance(limit)
	}
	return e.now - start
}

// PendingEvents reports the number of not-yet-fired scheduled events. Useful
// for drain/quiesce checks in tests.
func (e *Engine) PendingEvents() int { return len(e.events) }
