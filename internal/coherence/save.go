package coherence

import (
	"sort"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/snapshot"
)

// SaveInstr serializes one trace instruction together with the effect its
// handle names in a, by value: the handle itself never reaches the stream.
// In-flight handler traces (queued on a backend, or captured inside
// pipeline uops) round trip through this codec. The effect's kind is its
// stream tag (0 = no effect), so the EffectKind numbering is part of the
// snapshot format.
func (a *EffectArena) SaveInstr(e *snapshot.Encoder, in *isa.Instr) {
	e.U64(in.PC)
	e.U8(uint8(in.Op))
	e.U8(uint8(in.Dst))
	e.U8(uint8(in.Src1))
	e.U8(uint8(in.Src2))
	e.U64(in.Addr)
	e.U8(in.Size)
	e.Bool(in.Taken)
	e.U64(in.Target)
	e.U8(uint8(in.Flags))
	e.U64(in.SyncTok)
	if in.Effect == 0 {
		e.U8(uint8(effFree))
		return
	}
	f := a.Get(in.Effect)
	e.U8(uint8(f.Kind))
	switch f.Kind {
	case EffSend:
		e.Bool(f.NeedsMemory)
		network.SaveMessage(e, &f.Msg)
	case EffRefill:
		e.U64(f.Line)
		e.U8(uint8(f.St))
		e.Int(f.Acks)
		e.Bool(f.Upgrade)
		e.Bool(f.NeedsMemory)
	case EffNak, EffIAck, EffWBAck:
		e.U64(f.Line)
	default:
		panic("coherence: unknown effect kind")
	}
}

// LoadInstr rebuilds an instruction saved by SaveInstr, issuing its effect
// (if any) into a under a fresh handle.
func (a *EffectArena) LoadInstr(d *snapshot.Decoder) isa.Instr {
	var in isa.Instr
	in.PC = d.U64()
	in.Op = isa.Op(d.U8())
	in.Dst = isa.Reg(d.U8())
	in.Src1 = isa.Reg(d.U8())
	in.Src2 = isa.Reg(d.U8())
	in.Addr = d.U64()
	in.Size = d.U8()
	in.Taken = d.Bool()
	in.Target = d.U64()
	in.Flags = isa.Flags(d.U8())
	in.SyncTok = d.U64()
	f := Effect{Kind: EffectKind(d.U8())}
	switch f.Kind {
	case effFree:
		return in
	case EffSend:
		f.NeedsMemory = d.Bool()
		network.DecodeMessage(d, &f.Msg)
		f.Line = f.Msg.Addr
	case EffRefill:
		f.Line = d.U64()
		f.St = cache.State(d.U8())
		f.Acks = d.Int()
		f.Upgrade = d.Bool()
		f.NeedsMemory = d.Bool()
	case EffNak, EffIAck, EffWBAck:
		f.Line = d.U64()
	default:
		d.Fail("unknown effect kind %d", f.Kind)
	}
	if d.Err() == nil {
		in.Effect = a.issue(f)
	}
	return in
}

// SaveState serializes the ReVive log: epoch, counters, and both maps as
// sorted key/value lists (map iteration order never reaches the stream).
func (l *ReviveLog) SaveState(e *snapshot.Encoder) {
	e.Mark("revive")
	e.U64(l.epoch)
	e.U64(l.Entries)
	e.U64(l.Checkpoints)
	lines := make([]uint64, 0, len(l.logged))
	for k := range l.logged {
		lines = append(lines, k)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	e.Int(len(lines))
	for _, k := range lines {
		e.U64(k)
		e.U64(l.logged[k])
	}
	homes := make([]int, 0, len(l.cursors))
	for k := range l.cursors {
		homes = append(homes, int(k))
	}
	sort.Ints(homes)
	e.Int(len(homes))
	for _, k := range homes {
		e.Int(k)
		e.U64(l.cursors[addrmap.NodeID(k)])
	}
}

// LoadState restores a ReVive log saved by SaveState.
func (l *ReviveLog) LoadState(d *snapshot.Decoder) {
	d.Expect("revive")
	l.epoch = d.U64()
	l.Entries = d.U64()
	l.Checkpoints = d.U64()
	l.logged = make(map[uint64]uint64)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := d.U64()
		l.logged[k] = d.U64()
	}
	l.cursors = make(map[addrmap.NodeID]uint64)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := addrmap.NodeID(d.Int())
		l.cursors[k] = d.U64()
	}
}
