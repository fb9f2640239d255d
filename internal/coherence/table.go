package coherence

import (
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
)

// Table is a complete protocol personality: one handler program per message
// type. The base coherence protocol is the default table; extensions (§6 of
// the paper: fault tolerance, active memory, compression ...) derive new
// tables that replace or augment individual handlers, exactly as a
// protocol-thread machine would load different protocol code.
type Table struct {
	progs [NumMsgTypes]*Program
}

// DefaultTable returns the base Origin-derived coherence protocol.
func DefaultTable() *Table {
	t := &Table{}
	copy(t.progs[:], handlerTable[:])
	return t
}

// Clone returns a copy that can replace handlers without affecting t.
func (t *Table) Clone() *Table {
	c := &Table{}
	c.progs = t.progs
	return c
}

// Program returns the handler for a message type.
func (t *Table) Program(mt MsgType) *Program {
	p := t.progs[mt]
	if p == nil {
		panic("coherence: table has no handler for " + mt.String())
	}
	return p
}

// Replace installs a new handler for a message type.
func (t *Table) Replace(mt MsgType, p *Program) {
	t.progs[mt] = p
}

// Handle runs the table's handler for msg against env, returning the
// executed-path instruction trace. The trace's effects are issued into fx.
func (t *Table) Handle(env Env, fx *EffectArena, msg *network.Message) []isa.Instr {
	c := &Ctx{Env: env, Msg: msg, Effects: fx}
	return t.Program(MsgType(msg.Type)).Execute(c)
}

// HandleInto is the dispatch-unit fast path: it reuses the caller's context
// (and the effect arena set on it) and appends the executed-path trace into
// buf, so a steady-state dispatch allocates nothing.
func (t *Table) HandleInto(c *Ctx, env Env, msg *network.Message, buf []isa.Instr) []isa.Instr {
	msg.AssertLive("coherence.HandleInto")
	c.Reset(env, msg)
	return t.Program(MsgType(msg.Type)).ExecuteInto(c, buf)
}
