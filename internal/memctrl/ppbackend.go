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
}

// NewPPBackend builds the backend; effects fire into the controller.
func NewPPBackend(cfg ppengine.Config, mc *MC) *PPBackend {
	return &PPBackend{Engine: ppengine.New(cfg, mc.FireEffect), mc: mc}
}

// CanAccept implements Backend.
func (b *PPBackend) CanAccept() bool { return !b.Engine.Busy() }

// TraceBuf implements Backend: the idle engine's last trace, emptied.
func (b *PPBackend) TraceBuf() []isa.Instr { return b.Engine.TraceBuf() }

// Start implements Backend.
func (b *PPBackend) Start(trace []isa.Instr) {
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
