package sim

import (
	"fmt"
	"sort"
)

// Desc is a scheduled event: the engine stores nothing else about it and
// never interprets it. When the event comes due the engine hands the
// descriptor to its fire function, which routes it by kind to the
// component that scheduled it; a snapshot stores it verbatim, and restore
// pushes it back unchanged, so a restored event fires through the same
// code as a live one. Owner is the node the event belongs to (which
// decides the target shard engine), Kind a package-scoped constant (each
// scheduling package claims a disjoint range; 0 is claimed by none), and
// Args everything the event needs, packed by the scheduling site: a
// descriptor holds values, never references.
type Desc struct {
	Owner int32
	Kind  uint8
	Args  [6]uint64
}

// EventState is one pending event as exported by ExportState: the exact
// heap-ordering key (due cycle, scheduling position, sequence number) plus
// the descriptor that is the event.
type EventState struct {
	At   Cycle
	Pos  [3]uint64
	Seq  uint64
	Desc Desc
}

// CompState is the per-clocked-component engine state: the precomputed
// next due cycle. Deferral windows are always settled (FlushDeferred)
// before export, so lazy state needs no representation.
type CompState struct {
	NextTick Cycle
}

// EngineState is a complete image of an engine's dynamic state. Events
// are sorted by the engine's own firing order (eventLess), making the
// export deterministic regardless of heap layout.
type EngineState struct {
	Now     Cycle
	Seq     uint64
	Skipped uint64
	Comps   []CompState
	Events  []EventState
}

// RestoreEvent re-injects a snapshotted event with its original heap key.
// Unlike Schedule it consumes no sequence number: the caller replays the
// exact (at, pos, seq) triple from the snapshot so the restored heap fires
// in the same order — and interleaves with post-restore scheduling the
// same way — as the uninterrupted run's heap.
func (e *Engine) RestoreEvent(at Cycle, pos [3]uint64, seq uint64, d Desc) {
	if at <= e.now {
		panic(fmt.Sprintf("sim: restore event at %d but now is %d", at, e.now))
	}
	e.pushEvent(event{at: at, pos: pos, seq: seq, desc: e.takeDesc(d)})
}

// ExportState captures the engine's dynamic state for a snapshot. The
// caller must have settled all lazy-deferral windows (FlushDeferred)
// first.
func (e *Engine) ExportState() (EngineState, error) {
	st := EngineState{Now: e.now, Seq: e.seq, Skipped: e.skipped}
	st.Comps = make([]CompState, len(e.comps))
	for i := range e.comps {
		ce := &e.comps[i]
		if ce.deferring {
			return EngineState{}, fmt.Errorf("sim: ExportState with open deferral window on component %d (call FlushDeferred first)", i)
		}
		st.Comps[i] = CompState{NextTick: ce.nextTick}
	}
	evs := make([]event, len(e.events))
	copy(evs, e.events)
	sort.Slice(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
	st.Events = make([]EventState, len(evs))
	for i, ev := range evs {
		st.Events[i] = EventState{At: ev.at, Pos: ev.pos, Seq: ev.seq, Desc: e.descs[ev.desc]}
	}
	return st, nil
}

// ImportState moves the engine's clock, sequence counter and component
// schedule to a snapshot's values. The event heap is cleared; the caller
// re-injects the snapshot's events with RestoreEvent. The component count
// must match the snapshot (same machine shape).
func (e *Engine) ImportState(st EngineState) error {
	if len(st.Comps) != len(e.comps) {
		return fmt.Errorf("sim: snapshot has %d clocked components, engine has %d", len(st.Comps), len(e.comps))
	}
	e.now = st.Now
	e.seq = st.Seq
	e.skipped = st.Skipped
	for i := range e.comps {
		ce := &e.comps[i]
		ce.nextTick = st.Comps[i].NextTick
		ce.deferring = false
		ce.settleBase = 0
	}
	e.events = e.events[:0]
	e.descs = e.descs[:0]
	e.descFree = e.descFree[:0]
	return nil
}
