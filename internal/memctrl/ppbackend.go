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

	// lazyH settles lazily-deferred idle ticks of the processor (nil when
	// it is not registered for lazy ticking, e.g. in unit tests).
	lazyH *sim.TickHandle
}

// NewPPBackend builds the backend; effects fire into the controller.
func NewPPBackend(cfg ppengine.Config, mc *MC) *PPBackend {
	return &PPBackend{Engine: ppengine.New(cfg, mc.FireEffect), mc: mc}
}

// CanAccept implements Backend.
func (b *PPBackend) CanAccept() bool { return !b.Engine.Busy() }

// TraceBuf implements Backend: the idle engine's last trace, emptied.
func (b *PPBackend) TraceBuf() []isa.Instr { return b.Engine.TraceBuf() }

// BindLazy installs the engine's lazy-tick handle for the processor (see
// sim.MakeLazy). Must be called before the run starts.
func (b *PPBackend) BindLazy(h *sim.TickHandle) { b.lazyH = h }

// Start implements Backend. Dispatch is the idle processor's only input:
// it settles the deferred idle ticks first, so the processor ticks live
// from its next slot.
func (b *PPBackend) Start(trace []isa.Instr) {
	if b.lazyH != nil {
		b.lazyH.Settle()
	}
	if !b.Engine.Start(trace) {
		panic("memctrl: PP backend Start while busy")
	}
}

// Tick implements sim.Clocked. A tick that may retire the trace's last
// instruction flips CanAccept, from which the controller's deferred idle
// ticks replay their fairness toggles: it settles the controller first.
func (b *PPBackend) Tick(now sim.Cycle) {
	if b.Engine.MayFinish() {
		b.mc.settle()
	}
	b.Engine.Tick(now)
}

// NextWork implements sim.Quiescer: a busy protocol processor ticks every
// PP clock; an idle one's tick is a no-op (it holds no trace and samples
// nothing), so it names no work of its own and the lazy kernel defers its
// ticks until Start settles them.
func (b *PPBackend) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	if b.Engine.Busy() {
		return 0, false
	}
	return sim.NoWork, true
}

// Skipped implements sim.SkipAware: an idle tick applies nothing.
func (b *PPBackend) Skipped(uint64, sim.Cycle) {}
