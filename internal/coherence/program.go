package coherence

import (
	"fmt"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/directory"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
)

// Env is what handler semantics may do immediately (functional machine
// state). Timed side effects — sends, refills, retries — are not performed
// through Env; they are attached to trace instructions as effects and fired
// by the dispatch glue when those instructions complete.
type Env interface {
	// NodeID returns the node this handler runs on.
	NodeID() addrmap.NodeID
	// Nodes returns the machine's node count.
	Nodes() int
	// HomeOf returns the home node of an application address.
	HomeOf(addr uint64) addrmap.NodeID
	// DirLoad reads this node's directory entry covering addr.
	DirLoad(addr uint64) directory.Entry
	// DirStore writes this node's directory entry covering addr.
	DirStore(addr uint64, e directory.Entry)
	// DirEntryAddr returns the memory address of the entry covering addr.
	DirEntryAddr(addr uint64) uint64
	// CacheProbe returns this node's L2 state for the line.
	CacheProbe(lineAddr uint64) cache.State
	// CacheInvalidate removes the line from this node's L2 (and, via
	// inclusion, L1s), reporting whether it was dirty.
	CacheInvalidate(lineAddr uint64) bool
	// CacheDowngrade moves the line to Shared, reporting whether it was dirty.
	CacheDowngrade(lineAddr uint64) bool
	// LocalMissOutstanding reports whether this node's core has an
	// in-flight miss for the line. The home NAKs remote requests for such
	// lines: its own transaction (dispatched earlier) still has effects in
	// flight, exactly like a pending-transaction-buffer conflict in the
	// Origin hub.
	LocalMissOutstanding(lineAddr uint64) bool
}

// Ctx is the per-dispatch handler execution context: the message being
// handled plus semantic scratch state shared by the static programs'
// closures. Dispatch units reuse one Ctx across handlers via Reset.
type Ctx struct {
	Env Env
	Msg *network.Message

	// Effects receives the timed side effects (sends, refills, acks) the
	// handler attaches to its trace instructions by handle. It belongs to
	// the dispatch unit, not the dispatch, and is preserved across Reset.
	Effects *EffectArena

	// Scratch state written by actions and read by conditions.
	E         directory.Entry // current directory entry
	remaining uint64          // sharer-iteration bitvector
	cur       addrmap.NodeID  // current sharer in iteration
	acks      int             // invalidation acks the requester must collect
	wasDirty  bool

	// Extension scratch (ReVive logging).
	logNeeded bool
	logEntry  uint64
}

// Line returns the coherence line address of the message.
func (c *Ctx) Line() uint64 { return addrmap.LineAddr(c.Msg.Addr) }

// Reset re-arms the context for a new dispatch, clearing all scratch state.
// The effect arena belongs to the dispatch unit, not the dispatch, and is
// kept.
func (c *Ctx) Reset(env Env, msg *network.Message) {
	*c = Ctx{Env: env, Effects: c.Effects, Msg: msg}
}

// Protocol-thread register conventions (integer logical registers).
const (
	rHdr  isa.Reg = 1 // request header, loaded by switch
	rAddr isa.Reg = 2 // request address, loaded by ldctxt
	rDir  isa.Reg = 3 // directory entry value
	rT1   isa.Reg = 4
	rT2   isa.Reg = 5
	rT3   isa.Reg = 6
	rT4   isa.Reg = 7
)

type condFn func(*Ctx) bool
type addrFn func(*Ctx) uint64
type actFn func(*Ctx)
type effFn func(*Ctx) uint32

// PInstr is one static protocol-code instruction.
type PInstr struct {
	Op     isa.Op
	Dst    isa.Reg
	Src1   isa.Reg
	Src2   isa.Reg
	Cond   condFn // branches: resolved direction
	Tgt    int    // branch target slot (resolved from labels)
	tgtLbl string // unresolved label during construction
	Addr   addrFn // memory ops: effective address
	Act    actFn  // semantic action executed when the interpreter passes
	Eff    effFn  // issues the effect attached to the emitted instruction
}

// Program is one protocol handler's static code.
type Program struct {
	Name string
	Base uint64 // code address of slot 0
	Code []PInstr
}

// Execute interprets the program against ctx, returning the executed-path
// dynamic trace. Semantic actions run in program order; the final two
// instructions of every program are the switch/ldctxt pair appended by the
// builder.
func (p *Program) Execute(c *Ctx) []isa.Instr {
	return p.ExecuteInto(c, make([]isa.Instr, 0, len(p.Code)+4))
}

// ExecuteInto is Execute appending into a caller-provided buffer (reused
// across dispatches by the memory controller; released back to it by the
// protocol execution backend when the handler completes).
func (p *Program) ExecuteInto(c *Ctx, out []isa.Instr) []isa.Instr {
	out = out[:0]
	slot := 0
	for slot < len(p.Code) {
		if len(out) >= isa.MaxTraceLen {
			panic(fmt.Sprintf("coherence: handler %s trace exceeds %d instructions", p.Name, isa.MaxTraceLen))
		}
		pi := &p.Code[slot]
		in := isa.Instr{
			PC:   p.Base + uint64(slot)*4,
			Op:   pi.Op,
			Dst:  pi.Dst,
			Src1: pi.Src1,
			Src2: pi.Src2,
			Size: 8,
		}
		if len(out) == 0 {
			in.Flags |= isa.FlagHandlerStart
		}
		if pi.Addr != nil {
			in.Addr = pi.Addr(c)
		}
		if pi.Act != nil {
			pi.Act(c)
		}
		if pi.Eff != nil {
			in.Effect = pi.Eff(c)
		}
		if pi.Op == isa.OpBranch {
			taken := pi.Cond(c)
			in.Taken = taken
			in.Target = p.Base + uint64(pi.Tgt)*4
			out = append(out, in)
			if taken {
				slot = pi.Tgt
			} else {
				slot++
			}
			continue
		}
		if pi.Op == isa.OpLdctxt {
			in.Flags |= isa.FlagLastInHandler
		}
		out = append(out, in)
		slot++
	}
	return out
}

// StaticLen returns the static instruction count of the program.
func (p *Program) StaticLen() int { return len(p.Code) }

// progBuilder assembles a Program with label-based branch targets.
type progBuilder struct {
	p      *Program
	labels map[string]int
}

func newProg(name string, base uint64) *progBuilder {
	return &progBuilder{
		p:      &Program{Name: name, Base: base},
		labels: map[string]int{},
	}
}

func (b *progBuilder) emit(pi PInstr) *progBuilder {
	b.p.Code = append(b.p.Code, pi)
	return b
}

// label marks the next slot.
func (b *progBuilder) label(name string) *progBuilder {
	b.labels[name] = len(b.p.Code)
	return b
}

// ld emits a protocol load.
func (b *progBuilder) ld(dst isa.Reg, addr addrFn, act actFn) *progBuilder {
	return b.emit(PInstr{Op: isa.OpLoad, Dst: dst, Addr: addr, Act: act})
}

// st emits a protocol store.
func (b *progBuilder) st(src isa.Reg, addr addrFn, act actFn) *progBuilder {
	return b.emit(PInstr{Op: isa.OpStore, Src1: src, Addr: addr, Act: act})
}

// alu emits an integer ALU op.
func (b *progBuilder) alu(dst, s1, s2 isa.Reg) *progBuilder {
	return b.emit(PInstr{Op: isa.OpIntALU, Dst: dst, Src1: s1, Src2: s2})
}

// bit emits a bit-manipulation op (popcount / count-trailing-zeros class).
func (b *progBuilder) bit(dst, s1 isa.Reg) *progBuilder {
	return b.emit(PInstr{Op: isa.OpBitOp, Dst: dst, Src1: s1})
}

// br emits a conditional branch to a label.
func (b *progBuilder) br(src isa.Reg, cond condFn, lbl string) *progBuilder {
	return b.emit(PInstr{Op: isa.OpBranch, Src1: src, Cond: cond, tgtLbl: lbl})
}

// jmp emits an unconditional branch to a label.
func (b *progBuilder) jmp(lbl string) *progBuilder {
	return b.br(isa.RegNone, func(*Ctx) bool { return true }, lbl)
}

// act emits a zero-latency semantic-only point carried by an ALU op (used
// where real code would compute the value being acted on).
func (b *progBuilder) act(dst, s1 isa.Reg, fn actFn) *progBuilder {
	return b.emit(PInstr{Op: isa.OpIntALU, Dst: dst, Src1: s1, Act: fn})
}

// send emits the uncached store pair implementing the send instruction; eff
// issues the effect fired when the second store (send.addr) completes
// (normally an EffSend).
func (b *progBuilder) send(eff effFn) *progBuilder {
	b.emit(PInstr{Op: isa.OpSendHdr, Src1: rT1, Addr: mmioSendHdr})
	return b.emit(PInstr{Op: isa.OpSendAddr, Src1: rT2, Addr: mmioSendAddr, Eff: eff})
}

// done finalizes the program: appends the switch/ldctxt pair and resolves
// labels. The ldctxt carries no effect; the dispatch glue links it to
// handler completion.
func (b *progBuilder) done() *Program {
	b.emit(PInstr{Op: isa.OpSwitch, Dst: rHdr, Addr: mmioSwitch})
	b.emit(PInstr{Op: isa.OpLdctxt, Dst: rAddr, Addr: mmioLdctxt})
	for i := range b.p.Code {
		pi := &b.p.Code[i]
		if pi.Op == isa.OpBranch {
			tgt, ok := b.labels[pi.tgtLbl]
			if !ok {
				panic(fmt.Sprintf("coherence: %s: unresolved label %q", b.p.Name, pi.tgtLbl))
			}
			pi.Tgt = tgt
		}
	}
	return b.p
}

// MMIO register addresses for the protocol thread's uncached accesses.
var (
	mmioSwitch   = func(*Ctx) uint64 { return addrmap.MMIOBase + 0x00 }
	mmioLdctxt   = func(*Ctx) uint64 { return addrmap.MMIOBase + 0x08 }
	mmioSendHdr  = func(*Ctx) uint64 { return addrmap.MMIOBase + 0x10 }
	mmioSendAddr = func(*Ctx) uint64 { return addrmap.MMIOBase + 0x18 }
)

// dirAddr is the address closure for the current message's directory entry.
func dirAddr(c *Ctx) uint64 { return c.Env.DirEntryAddr(c.Msg.Addr) }
