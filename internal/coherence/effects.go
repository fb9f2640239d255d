package coherence

import (
	"smtpsim/internal/cache"
	"smtpsim/internal/network"
)

// EffectKind names what an effect does when it fires.
type EffectKind uint8

// Effect kinds. The zero kind marks a free arena slot.
const (
	effFree EffectKind = iota
	// EffSend emits Msg. With NeedsMemory the message carries line data
	// read from local SDRAM and may not leave before the fetch (initiated
	// at dispatch) completes.
	EffSend
	// EffRefill completes an outstanding local miss: fill the line into
	// L2/L1 in state St and wake MSHR waiters. Acks is the number of
	// invalidation acks still expected (eager-exclusive replies); Upgrade
	// marks an ownership-only grant (no data fill, just a state change);
	// NeedsMemory makes the data come from a local SDRAM fetch.
	EffRefill
	// EffNak tells the requester's miss machinery to retry the transaction.
	EffNak
	// EffIAck delivers one invalidation ack for the line.
	EffIAck
	// EffWBAck completes an outstanding writeback.
	EffWBAck
)

// Effect is one timed side effect of a handler, attached to the trace
// instruction whose completion fires it (graduation on SMTp, retire on the
// PP). It is plain data: the send's message is held by value and only
// becomes a pooled network message when the effect fires.
type Effect struct {
	Kind        EffectKind
	St          cache.State // EffRefill
	Upgrade     bool        // EffRefill
	NeedsMemory bool        // EffSend, EffRefill
	Acks        int         // EffRefill
	Line        uint64      // the coherence line, for every kind
	Msg         network.Message
}

// EffectArena owns the effects of the handler traces one dispatch unit has
// produced and not yet fired. A trace instruction names its effect by a
// uint32 handle into the arena (isa.Instr.Effect), so traces, stream
// buffers and uops stay pointer-free. Handles are local to one arena: the
// owning memory controller issues them at dispatch, fires each exactly once
// with Take, and re-issues fresh ones when a snapshot is restored (the
// snapshot stores effects by value, never handles). Handle 0 is never
// issued; it means "no effect".
//
// Slots are recycled through a free list, so the steady-state dispatch path
// allocates nothing once the arena has grown to its high-water mark (a few
// handlers' worth of effects).
type EffectArena struct {
	slots []Effect // slots[0] is the reserved "no effect" slot
	free  []uint32
}

// NewEffectArena returns an empty arena.
func NewEffectArena() *EffectArena { return &EffectArena{} }

// issue stores e and returns its handle.
func (a *EffectArena) issue(e Effect) uint32 {
	if k := len(a.free); k > 0 {
		h := a.free[k-1]
		a.free = a.free[:k-1]
		a.slots[h] = e
		return h
	}
	if len(a.slots) == 0 {
		a.slots = append(a.slots, Effect{})
	}
	a.slots = append(a.slots, e)
	return uint32(len(a.slots) - 1)
}

// Get returns the live effect h names without firing it (snapshot codec,
// trace tooling). The pointer is valid until the next issue.
func (a *EffectArena) Get(h uint32) *Effect {
	a.checkLive(h)
	return &a.slots[h]
}

// Take fires h: it returns the effect by value and frees its slot, so a
// handle is consumed exactly once. Under the poolcheck build tag taking a
// free or never-issued handle panics.
func (a *EffectArena) Take(h uint32) Effect {
	a.checkLive(h)
	e := a.slots[h]
	a.slots[h] = Effect{}
	a.free = append(a.free, h)
	return e
}

// Live reports the number of issued, not yet fired effects.
func (a *EffectArena) Live() int {
	if len(a.slots) == 0 {
		return 0
	}
	return len(a.slots) - 1 - len(a.free)
}

// Reset frees every slot. Restore calls it before re-issuing the handles
// of the restored traces.
func (a *EffectArena) Reset() {
	a.slots = a.slots[:0]
	a.free = a.free[:0]
}

// Effect constructors used by the handler programs.

func (c *Ctx) sendEffect(m network.Message, needsMem bool) uint32 {
	return c.Effects.issue(Effect{Kind: EffSend, NeedsMemory: needsMem, Line: m.Addr, Msg: m})
}

func (c *Ctx) refillEffect(line uint64, st cache.State, acks int, upgrade, needsMem bool) uint32 {
	return c.Effects.issue(Effect{Kind: EffRefill, Line: line, St: st, Acks: acks, Upgrade: upgrade, NeedsMemory: needsMem})
}

func (c *Ctx) lineEffect(k EffectKind, line uint64) uint32 {
	return c.Effects.issue(Effect{Kind: k, Line: line})
}
