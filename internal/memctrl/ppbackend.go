package memctrl

import (
	"smtpsim/internal/isa"
	"smtpsim/internal/ppengine"
	"smtpsim/internal/sim"
)

// PPBackend adapts the embedded dual-issue protocol processor to the
// Backend interface. It must be ticked at the MC clock, before the MC
// itself, so retiring effects become visible in dispatch order.
type PPBackend struct {
	Engine *ppengine.Engine
	mc     *MC
	cur    []isa.Instr // trace being executed, recycled on completion
}

// NewPPBackend builds the backend; effects fire into the controller, and
// the handler's trace buffer is recycled when the PP finishes it.
func NewPPBackend(cfg ppengine.Config, mc *MC) *PPBackend {
	b := &PPBackend{mc: mc}
	b.Engine = ppengine.New(cfg, mc.FireEffect, func() {
		if b.cur != nil {
			mc.ReleaseTrace(b.cur)
			b.cur = nil
		}
	})
	return b
}

// CanAccept implements Backend.
func (b *PPBackend) CanAccept() bool { return !b.Engine.Busy() }

// Start implements Backend.
func (b *PPBackend) Start(trace []isa.Instr) {
	b.cur = trace
	if !b.Engine.Start(trace) {
		panic("memctrl: PP backend Start while busy")
	}
}

// Tick implements sim.Clocked.
func (b *PPBackend) Tick(now sim.Cycle) { b.Engine.Tick(now) }

// NextWork implements sim.Quiescer: an idle protocol processor's tick is a
// pure no-op (it holds no trace and samples nothing), so it never bounds a
// skip; a busy one must tick every cycle. It needs no SkipAware hook for
// the same reason.
func (b *PPBackend) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	if b.Engine.Busy() {
		return 0, false
	}
	return sim.NoWork, true
}
