// Package memctrl models the per-node memory controller of Figure 1: the
// local miss interface, the network interface queues, the SDRAM, and the
// handler dispatch unit that accepts protocol messages, initiates the
// overlapped memory access for data replies, runs the coherence handler
// semantics to obtain the executed-path trace, and hands the trace to the
// protocol execution backend — either the embedded dual-issue protocol
// processor (Base/Int* models) or the SMTp protocol thread on the main
// pipeline.
package memctrl

import (
	"strings"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
)

// Backend executes protocol handler traces. The SMTp pipeline and the
// embedded protocol processor both implement it.
type Backend interface {
	// CanAccept reports whether a new handler may be dispatched now.
	CanAccept() bool
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
	// ProtoBusXferCyc is the SMTp protocol-miss bus transfer time (the
	// separate 64-bit bus of §2.1).
	ProtoBusXferCyc sim.Cycle
	// MemReadTableCap is the initial capacity of the in-flight SDRAM read
	// table (grown as the touched-line footprint demands; 1024).
	MemReadTableCap int
}

// MC is one node's memory controller.
type MC struct {
	cfg  Config
	eng  *sim.Engine
	env  coherence.Env
	node NodeIface
	net  network.Port
	back Backend

	table      *coherence.Table
	local      []localSlot
	in         [network.NumVCs]msgRing
	localFirst bool
	queued     int // arrived messages across local+in (excludes in-transit slots)

	// Allocation-free dispatch machinery: dispatch pops the next message
	// into cur, which the reused handler context borrows; handler effects
	// live in a recycled arena; handler traces append into recycled
	// buffers returned by the backend on completion.
	cur       network.Message
	effects   *coherence.EffectArena
	traceFree [][]isa.Instr
	hctx      coherence.Ctx

	sdramBusy sim.Cycle
	memReads  *readTable // line -> SDRAM data ready time

	protoBusy sim.Cycle // separate protocol-miss bus (SMTp)

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
	n := 0
	for i := range mc.local {
		if mc.local[i].arrived {
			n++
		}
	}
	mc.localDepth.SampleN(n, count)
	for vc := range mc.in {
		mc.vcDepth[vc].SampleN(mc.in[vc].size, count)
	}
}

// New builds a controller. The backend must be set with SetBackend before
// the first dispatch.
func New(cfg Config, eng *sim.Engine, env coherence.Env, node NodeIface, net network.Port) *MC {
	if cfg.ClockDiv == 0 {
		cfg.ClockDiv = 2
	}
	if cfg.LocalQueueCap == 0 {
		cfg.LocalQueueCap = 16
	}
	if cfg.MemReadTableCap == 0 {
		cfg.MemReadTableCap = 1024
	}
	mc := &MC{
		cfg:      cfg,
		eng:      eng,
		env:      env,
		node:     node,
		net:      net,
		effects:  coherence.NewEffectArena(),
		table:    coherence.DefaultTable(),
		memReads: newReadTable(cfg.MemReadTableCap),
	}
	mc.hctx.Effects = mc.effects
	return mc
}

// SetTable installs an alternative protocol table (extensions, §6).
func (mc *MC) SetTable(t *coherence.Table) { mc.table = t }

// SetBackend installs the protocol execution backend.
func (mc *MC) SetBackend(b Backend) { mc.back = b }

// Cfg returns the configuration.
func (mc *MC) Cfg() Config { return mc.cfg }

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
	mc.in[m.VC].push(&m)
	mc.queued++
}

// QueuedMessages reports the total queued (drain checking).
func (mc *MC) QueuedMessages() int {
	return mc.queued
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
	xfer := mc.cfg.ProtoBusXferCyc
	if xfer == 0 {
		xfer = mc.cfg.SDRAMXferCyc
	}
	mc.protoBusy = start + xfer
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

// Tick runs the handler dispatch unit: one dispatch per MC clock when the
// backend has room. Registered with the engine at period cfg.ClockDiv.
func (mc *MC) Tick(now sim.Cycle) {
	mc.sampleQueuesN(1)
	if mc.back == nil || !mc.back.CanAccept() || !mc.pick() {
		return
	}
	mc.dispatch()
}

// NextWork implements sim.Quiescer. With queued messages the controller has
// work every MC clock; with empty queues nothing happens until a message
// arrives — and every arrival path (EnqueueLocal, EnqueueNet, localDeferred)
// runs from a busy component's tick or a scheduled event, both of which
// bound the kernel's skip on their own.
func (mc *MC) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	if mc.queued > 0 {
		return 0, false
	}
	return sim.NoWork, true
}

// Skipped implements sim.SkipAware: n elided idle MC clocks each sample the
// (frozen, empty-of-live-messages) queue depths, and — when the backend
// could accept — each run pick() far enough to toggle the local/network
// fairness bit before finding nothing to dispatch.
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
	trace := mc.table.HandleInto(&mc.hctx, mc.env, m, mc.getTraceBuf())
	mc.back.Start(trace)
}

// getTraceBuf returns a recycled handler-trace buffer.
func (mc *MC) getTraceBuf() []isa.Instr {
	if k := len(mc.traceFree); k > 0 {
		b := mc.traceFree[k-1]
		mc.traceFree[k-1] = nil
		mc.traceFree = mc.traceFree[:k-1]
		return b[:0]
	}
	return make([]isa.Instr, 0, 64)
}

// ReleaseTrace returns a handler trace to the buffer free list. The
// protocol execution backend calls it when the handler completes (PP done;
// SMTp ldctxt graduation), after which nothing references the buffer —
// every trace instruction was copied by value into its uop.
func (mc *MC) ReleaseTrace(t []isa.Instr) {
	if cap(t) == 0 {
		return
	}
	mc.traceFree = append(mc.traceFree, t)
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
