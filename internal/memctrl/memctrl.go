// Package memctrl models the per-node memory controller of Figure 1: the
// local miss interface, the network interface queues, the SDRAM, and the
// handler dispatch unit that accepts protocol messages, initiates the
// overlapped memory access for data replies, runs the coherence handler
// semantics to obtain the executed-path trace, and hands the trace to the
// protocol execution backend — either the embedded dual-issue protocol
// processor (Base/Int* models), which the controller owns and ticks on its
// own clock, or the SMTp protocol thread on the main pipeline.
package memctrl

import (
	"strings"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/ppengine"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
)

// Backend executes protocol handler traces. The SMTp pipeline's protocol
// thread and the embedded protocol processor (ppengine.Engine) both
// implement it.
type Backend interface {
	// CanAccept reports whether a new handler may be dispatched now.
	CanAccept() bool
	// TraceBuf returns the empty buffer the next handler's trace is
	// written into; the backend owns it (the SMTp dispatch slot, or the
	// protocol processor's last trace). Must only be called when
	// CanAccept is true.
	TraceBuf() []isa.Instr
	// Start begins executing a handler trace. Must only be called when
	// CanAccept is true.
	Start(trace []isa.Instr)
}

// NodeIface is how the controller delivers transaction completions back to
// the node's cache/miss machinery.
type NodeIface interface {
	DeliverRefill(line uint64, st cache.State, acks int, upgrade bool)
	DeliverNak(line uint64)
	DeliverIAck(line uint64)
	DeliverWBAck(line uint64)
}

// Config holds the controller's timing parameters, all in CPU cycles.
type Config struct {
	// ClockDiv is the MC clock divider: the controller dispatches on every
	// ClockDiv-th CPU cycle (2 = half processor speed, 5 = 400 MHz at 2 GHz).
	ClockDiv sim.Cycle
	// SDRAMAccessCyc is the SDRAM access time (80 ns).
	SDRAMAccessCyc sim.Cycle
	// SDRAMXferCyc is the line transfer time at SDRAM bandwidth
	// (128 B at 3.2 GB/s = 40 ns).
	SDRAMXferCyc sim.Cycle
	// LocalQueueCap bounds the local miss interface queue (16).
	LocalQueueCap int
	// PIExtraCycles models the processor<->controller bus crossing of a
	// non-integrated controller (Base); zero for integrated controllers.
	PIExtraCycles sim.Cycle
}

// readTableCap is the initial capacity of the in-flight SDRAM read table,
// which grows as the touched-line footprint demands.
const readTableCap = 1024

// MC is one node's memory controller.
type MC struct {
	cfg  Config
	eng  *sim.Engine
	env  coherence.Env
	node NodeIface
	net  network.Port
	back Backend
	pp   *ppengine.Engine // the embedded protocol processor, ticked by Tick (nil on SMTp)

	table      *coherence.Table
	local      []localSlot
	in         [network.NumVCs]msgRing
	localFirst bool
	queued     int // arrived messages across local+in (excludes in-transit slots)

	// Allocation-free dispatch machinery: dispatch pops the next message
	// into cur, which the reused handler context borrows; handler effects
	// live in a recycled arena; handler traces append into the backend's
	// own buffer (Backend.TraceBuf).
	cur     network.Message
	effects *coherence.EffectArena
	hctx    coherence.Ctx

	sdramBusy sim.Cycle
	memReads  *readTable // line -> SDRAM data ready time

	protoBusy sim.Cycle // separate protocol-miss bus (SMTp), at SDRAM bandwidth

	// Statistics.
	Dispatched     uint64
	LocalFull      uint64
	MemReadsIssued uint64
	MemWrites      uint64
	ProtoMisses    uint64

	// DispatchByType counts dispatched handlers per protocol message type
	// (the coherence-protocol mix behind Table 7's occupancy numbers).
	DispatchByType [coherence.NumMsgTypes]uint64

	// Input-queue depth trackers, sampled once per MC clock.
	localDepth stats.Peak
	vcDepth    [network.NumVCs]stats.Peak

	// lazyH settles lazily-deferred idle ticks of this controller (nil when
	// it is not registered for lazy ticking, e.g. in unit tests).
	lazyH *sim.TickHandle
}

// RegisterMetrics publishes the controller's counters under the given
// scope: dispatch totals and per-message-type breakdown, SDRAM traffic,
// the protocol-miss bus, and peak/mean input-queue depths per virtual
// network.
func (mc *MC) RegisterMetrics(s *stats.Scope) {
	s.CounterFunc("dispatched", func() uint64 { return mc.Dispatched })
	s.CounterFunc("local_full", func() uint64 { return mc.LocalFull })
	s.CounterFunc("mem_reads", func() uint64 { return mc.MemReadsIssued })
	s.CounterFunc("mem_writes", func() uint64 { return mc.MemWrites })
	s.CounterFunc("proto_misses", func() uint64 { return mc.ProtoMisses })
	d := s.Scope("dispatch")
	for t := coherence.MsgType(0); t < coherence.NumMsgTypes; t++ {
		t := t
		d.CounterFunc(strings.ToLower(t.String()), func() uint64 { return mc.DispatchByType[t] })
	}
	q := s.Scope("queue")
	q.PeakOf("local", &mc.localDepth)
	for vc := network.VC(0); vc < network.NumVCs; vc++ {
		q.PeakOf(vc.String(), &mc.vcDepth[vc])
	}
}

// sampleQueuesN records the input-queue depths for the queue.* peaks, as n
// consecutive identical MC-clock samples (n is 1 on a real tick; the number
// of elided ticks when the kernel skips an idle window, during which the
// queues are necessarily frozen).
func (mc *MC) sampleQueuesN(count uint64) {
	mc.localDepth.SampleN(mc.arrivedLocal(), count)
	for vc := range mc.in {
		mc.vcDepth[vc].SampleN(mc.in[vc].size, count)
	}
}

// New builds a controller. The backend must be set with SetBackend or
// EmbedProcessor before the first dispatch.
func New(cfg Config, eng *sim.Engine, env coherence.Env, node NodeIface, net network.Port) *MC {
	if cfg.ClockDiv == 0 {
		cfg.ClockDiv = 2
	}
	if cfg.LocalQueueCap == 0 {
		cfg.LocalQueueCap = 16
	}
	mc := &MC{
		cfg:      cfg,
		eng:      eng,
		env:      env,
		node:     node,
		net:      net,
		effects:  coherence.NewEffectArena(),
		table:    coherence.DefaultTable(),
		memReads: newReadTable(readTableCap),
	}
	mc.hctx.Effects = mc.effects
	return mc
}

// SetTable installs an alternative protocol table (extensions, §6).
func (mc *MC) SetTable(t *coherence.Table) { mc.table = t }

// SetBackend installs a protocol execution backend that runs on its own
// clock (the SMTp protocol thread, which its pipeline ticks).
func (mc *MC) SetBackend(b Backend) { mc.back = b }

// EmbedProcessor builds the Base/Int* models' embedded protocol processor
// and installs it as the backend. The processor runs on the controller's
// clock — Tick ticks it before dispatching — and its effects fire into the
// controller.
func (mc *MC) EmbedProcessor(cfg ppengine.Config) *ppengine.Engine {
	mc.pp = ppengine.New(cfg, mc.FireEffect)
	mc.back = mc.pp
	return mc.pp
}

// Cfg returns the configuration.
func (mc *MC) Cfg() Config { return mc.cfg }

// BindLazy installs the engine's lazy-tick handle for this controller (see
// sim.AddLazy). Must be called before the run starts. The SMTp protocol
// thread is handed the same handle, to settle the controller before its
// CanAccept answer changes.
func (mc *MC) BindLazy(h *sim.TickHandle) { mc.lazyH = h }

// settle is the single funnel for input that changes what an idle
// controller tick reads: the arrived queue contents, and the backend's
// CanAccept answer (from which Skipped replays the fairness toggles). It
// applies any lazily-deferred idle ticks against the still-untouched
// state, so every such change must pass through here BEFORE it happens.
// The settled controller ticks live from its next slot; one that is still
// idle then simply defers again.
//
// FireEffect and ProtocolMiss need no settle: they touch the effect arena,
// the SDRAM and protocol-bus reservations and counters, none of which an
// idle tick reads, and every queue change they cause arrives through
// EnqueueNet.
func (mc *MC) settle() {
	if mc.lazyH != nil {
		mc.lazyH.Settle()
	}
}

// localSlot is one entry of the local miss interface. A request crossing a
// non-integrated controller's system bus holds its slot unarrived, so it
// counts against LocalQueueCap and keeps its place in dispatch order.
type localSlot struct {
	msg     network.Message
	arrived bool
}

// EnqueueLocal queues a processor-interface request (an L2 miss or
// writeback) of message type t for line into the local miss interface.
// Returns false when the queue is full — the caller must retry.
func (mc *MC) EnqueueLocal(t uint8, line uint64) bool {
	mc.settle()
	if len(mc.local) >= mc.cfg.LocalQueueCap {
		mc.LocalFull++
		return false
	}
	id := mc.env.NodeID()
	m := network.Message{Src: id, Dst: id, Requester: id, Type: t, Addr: line}
	if mc.cfg.PIExtraCycles > 0 {
		// Non-integrated controller: the request crosses the system bus
		// packed in its event descriptor, and Fire fills its slot on
		// arrival.
		mc.eng.After(mc.cfg.PIExtraCycles, mc.deferredDesc(&m))
		mc.local = append(mc.local, localSlot{})
		return true
	}
	mc.local = append(mc.local, localSlot{msg: m, arrived: true})
	mc.queued++
	return true
}

// localDeferred fills the oldest unarrived local slot with a request that
// has crossed the system bus.
func (mc *MC) localDeferred(m *network.Message) {
	mc.settle()
	mc.queued++
	for i := range mc.local {
		if !mc.local[i].arrived {
			mc.local[i] = localSlot{msg: *m, arrived: true}
			return
		}
	}
	mc.local = append(mc.local, localSlot{msg: *m, arrived: true})
}

// EnqueueNet queues an arriving network message into its virtual network's
// input queue.
func (mc *MC) EnqueueNet(m network.Message) {
	mc.settle()
	mc.in[m.VC].push(&m)
	mc.queued++
}

// QueuedMessages reports the total queued (drain checking).
func (mc *MC) QueuedMessages() int {
	return mc.queued
}

// InTransitLocal reports the local slots whose request is still crossing
// the system bus; each has one pending KMCDeferred event to fill it.
func (mc *MC) InTransitLocal() int {
	return len(mc.local) - mc.arrivedLocal()
}

func (mc *MC) arrivedLocal() int {
	n := 0
	for i := range mc.local {
		if mc.local[i].arrived {
			n++
		}
	}
	return n
}

// sdramRead starts (or merges into) a read of line, returning the cycle the
// data will be available.
func (mc *MC) sdramRead(line uint64) sim.Cycle {
	if ready, ok := mc.memReads.get(line); ok && ready > mc.eng.Now() {
		return ready
	}
	now := mc.eng.Now()
	start := now
	if mc.sdramBusy > start {
		start = mc.sdramBusy
	}
	ready := start + mc.cfg.SDRAMAccessCyc
	mc.sdramBusy = start + mc.cfg.SDRAMXferCyc
	mc.memReads.put(line, ready)
	mc.MemReadsIssued++
	return ready
}

// sdramWrite charges a line write's bandwidth.
func (mc *MC) sdramWrite() {
	now := mc.eng.Now()
	if mc.sdramBusy < now {
		mc.sdramBusy = now
	}
	mc.sdramBusy += mc.cfg.SDRAMXferCyc
	mc.MemWrites++
}

// ProtocolMiss services an SMTp protocol-thread L2 miss over the separate
// protocol bus, bypassing the local miss interface (§2.1). d is the
// caller's completion event, fired when the line arrives (the pipeline
// owns the completion, so it owns the descriptor).
func (mc *MC) ProtocolMiss(line uint64, d sim.Desc) {
	now := mc.eng.Now()
	start := now
	if mc.protoBusy > start {
		start = mc.protoBusy
	}
	ready := start + mc.cfg.SDRAMAccessCyc
	mc.protoBusy = start + mc.cfg.SDRAMXferCyc
	mc.ProtoMisses++
	mc.eng.Schedule(ready, d)
}

// pick pops the next message to dispatch into mc.cur, reporting false
// when nothing is queued: replies first (they always drain, keeping the
// protocol deadlock-free), then interventions, then requests, alternating
// between the local miss interface and the network request queue for
// fairness.
func (mc *MC) pick() bool {
	if mc.popIn(network.VCReply) || mc.popIn(network.VCIntervention) {
		return true
	}
	mc.localFirst = !mc.localFirst
	if mc.localFirst {
		return mc.popLocal() || mc.popIn(network.VCRequest)
	}
	return mc.popIn(network.VCRequest) || mc.popLocal()
}

func (mc *MC) popIn(vc network.VC) bool {
	if !mc.in[vc].pop(&mc.cur) {
		return false
	}
	mc.queued--
	return true
}

func (mc *MC) popLocal() bool {
	for i := range mc.local {
		if mc.local[i].arrived {
			mc.cur = mc.local[i].msg
			mc.local = append(mc.local[:i], mc.local[i+1:]...)
			mc.queued--
			return true
		}
	}
	return false
}

// Tick runs one MC clock: the embedded protocol processor (if any) issues
// first, so the effects it retires precede this clock's dispatch; then the
// handler dispatch unit dispatches one message when the backend has room.
// Registered with the engine at period cfg.ClockDiv.
func (mc *MC) Tick(now sim.Cycle) {
	if mc.pp != nil {
		mc.pp.Tick(now)
	}
	mc.sampleQueuesN(1)
	if mc.back == nil || !mc.back.CanAccept() || !mc.pick() {
		return
	}
	mc.dispatch()
}

// NextWork implements sim.Lazy. With queued messages, or a handler running
// on the embedded protocol processor, the controller has work every MC
// clock. Otherwise its tick only samples the queue depths and toggles the
// fairness bit, which Skipped replays (an idle processor's tick does
// nothing), so it names no work of its own: the lazy kernel defers its
// ticks until the window is settled by input (see settle) or flushed by
// the driver.
func (mc *MC) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	if mc.queued > 0 || mc.pp != nil && mc.pp.Busy() {
		return 0, false
	}
	return sim.NoWork, true
}

// Skipped implements sim.Lazy: n elided idle MC clocks each sample the
// (frozen, empty-of-live-messages) queue depths, and — when the backend
// could accept — each run pick() far enough to toggle the local/network
// fairness bit before finding nothing to dispatch. CanAccept answers for
// the whole window: the embedded processor stays idle in it (only this
// controller's dispatch starts it), and the SMTp protocol thread settles
// the controller before it frees a dispatch slot.
func (mc *MC) Skipped(n uint64, _ sim.Cycle) {
	mc.sampleQueuesN(n)
	if mc.back != nil && mc.back.CanAccept() && n%2 == 1 {
		mc.localFirst = !mc.localFirst
	}
}

// dispatch runs the handler for mc.cur, which the handler context borrows
// until the next pick; the handler's effects copy what they need.
func (mc *MC) dispatch() {
	m := &mc.cur
	mc.Dispatched++
	t := coherence.MsgType(m.Type)
	if t < coherence.NumMsgTypes {
		mc.DispatchByType[t]++
	}
	// Overlap the memory access with handler execution when the message may
	// be answered with line data from this node's memory (paper §2.1).
	if t.WantsMemory() && mc.env.HomeOf(m.Addr) == mc.env.NodeID() {
		mc.sdramRead(addrmap.LineAddr(m.Addr))
	}
	// Writebacks deposit data into memory.
	if t == MsgWBType || t == MsgSHWBType || (t == MsgPIWritebackType && mc.env.HomeOf(m.Addr) == mc.env.NodeID()) {
		mc.sdramWrite()
	}
	mc.back.Start(mc.table.HandleInto(&mc.hctx, mc.env, m, mc.back.TraceBuf()))
}

// Aliases to avoid exporting coherence constants through this package's API.
const (
	MsgWBType          = coherence.MsgWB
	MsgSHWBType        = coherence.MsgSHWB
	MsgPIWritebackType = coherence.MsgPIWriteback
)

// FireEffect fires the effect a trace instruction's handle names. Called
// by the backend when the carrying instruction completes (PP retire or SMTp
// graduation). This is the single consumer of effect handles: each one is
// taken out of the dispatch unit's arena (freeing its slot) and copied into
// a KMCFire descriptor, fired inline or scheduled.
func (mc *MC) FireEffect(h uint32) {
	e := mc.effects.Take(h)
	switch e.Kind {
	case coherence.EffSend:
		mc.fireWhenReady(e.NeedsMemory, e.Line, mc.sendDesc(&e.Msg))
	case coherence.EffRefill:
		mc.fireWhenReady(e.NeedsMemory, e.Line, mc.refillDesc(e.Line, e.St, e.Acks, e.Upgrade))
	case coherence.EffNak:
		mc.node.DeliverNak(e.Line)
	case coherence.EffIAck:
		mc.node.DeliverIAck(e.Line)
	case coherence.EffWBAck:
		mc.node.DeliverWBAck(e.Line)
	default:
		panic("memctrl: unknown effect kind")
	}
}

// fireWhenReady fires d now, or once the overlapped SDRAM read of its line
// has completed.
func (mc *MC) fireWhenReady(needsMem bool, addr uint64, d sim.Desc) {
	if !needsMem {
		mc.fire(d)
		return
	}
	line := addrmap.LineAddr(addr)
	ready, ok := mc.memReads.get(line)
	if !ok {
		// Defensive: the dispatch-time read was skipped; start it now.
		ready = mc.sdramRead(line)
	}
	if ready <= mc.eng.Now() {
		mc.fire(d)
		return
	}
	mc.eng.Schedule(ready, d)
}
