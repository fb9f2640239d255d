package network

import (
	"math/bits"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
)

// VC is a virtual channel (virtual network).
type VC uint8

// Virtual networks. The protocol uses the first three; VCIO exists to match
// the configuration but carries no traffic in these experiments.
const (
	VCRequest VC = iota
	VCReply
	VCIntervention
	VCIO
	NumVCs
)

// String names the virtual channel.
func (v VC) String() string {
	switch v {
	case VCRequest:
		return "req"
	case VCReply:
		return "rpl"
	case VCIntervention:
		return "int"
	case VCIO:
		return "io"
	}
	return "vc?"
}

// HeaderBytes is the size of a message header (routing + address + type),
// charged to every message in addition to its data payload.
const HeaderBytes = 16

// Message is one protocol transaction flit-train. Type values are defined
// by the coherence package; the network treats them opaquely. A Message is
// a plain value with no pointer fields, and every holder keeps its own
// copy: an event descriptor in flight, a controller queue slot, a parked
// intervention.
type Message struct {
	Src, Dst  addrmap.NodeID
	Requester addrmap.NodeID // original requester for three-hop transactions
	VC        VC
	Type      uint8
	Addr      uint64
	Aux       uint64 // ack counts, owner hints, retry generation
	DataBytes int    // 0 for control messages, 128 for a cache line
}

// Bytes returns the total wire size of the message.
func (m *Message) Bytes() int { return HeaderBytes + m.DataBytes }

// Config holds the interconnect parameters.
type Config struct {
	Nodes       int
	HopCycles   sim.Cycle // 25 ns in CPU cycles
	BytesPerCyc float64   // link bandwidth in bytes per CPU cycle
	LocalLoop   sim.Cycle // latency for a node sending to itself (MC loopback)
}

// Network delivers messages between node network interfaces.
type Network struct {
	cfg     Config
	eng     *sim.Engine
	deliver func(Message)

	// linkBusy reserves each directed link until its last accepted message
	// finishes serializing. Every link of the bristled hypercube has a fixed
	// slot in this dense table, sized from the node count at construction:
	// [0, Nodes) are the node->router bristles, [dimBase, ejBase) the
	// router->router dimension links (router*dims + dimension), and
	// [ejBase, ejBase+Nodes) the router->node ejection bristles.
	linkBusy []sim.Cycle
	dims     int // hypercube dimensions of the router mesh
	dimBase  int // first router->router slot
	ejBase   int // first router->node slot

	// Sharded machines route every send through per-shard Endpoints; the
	// network keeps the shared topology and link tables and replays the
	// endpoints' staged sends at sync points (see shard.go).
	eps       []*Endpoint
	replayBuf []stagedSend

	// obs, when set, observes every staged send the moment its delivery is
	// scheduled during replay: the machine feeds the (message, delivery
	// cycle) pair to the destination pipeline's refill-hint table so
	// SyncHorizon can bound memory-stalled sync waits. Called with all
	// shards parked (serial replay) or from the partition that owns the
	// destination shard (partitioned replay) — never concurrently for the
	// same destination.
	obs func(m Message, done sim.Cycle)

	// Replay-plan scratch (see PlanReplay): the reusable plan, its
	// per-destination-shard partition buckets and wait counters, and the
	// generation-stamped link table backing the disjointness check.
	plan      ReplayPlan
	parts     [][]stagedSend
	waits     []uint64
	stampGen  []uint32
	stampPart []int32
	stampCur  uint32

	Sent      uint64
	Delivered uint64
	BytesSent uint64
	LinkWaits uint64 // messages that queued behind a busy link
}

// New builds a network. deliver is invoked (from the event loop) when a
// message arrives at its destination NI.
func New(cfg Config, eng *sim.Engine, deliver func(Message)) *Network {
	if cfg.Nodes < 1 {
		panic("network: need at least one node")
	}
	if cfg.HopCycles == 0 {
		cfg.HopCycles = 50
	}
	if cfg.BytesPerCyc == 0 {
		cfg.BytesPerCyc = 0.5
	}
	if cfg.LocalLoop == 0 {
		cfg.LocalLoop = 4
	}
	routers := (cfg.Nodes + 1) / 2
	dims := bits.Len(uint(routers - 1))
	n := &Network{
		cfg:     cfg,
		eng:     eng,
		deliver: deliver,
		dims:    dims,
		dimBase: cfg.Nodes,
		ejBase:  cfg.Nodes + routers*dims,
	}
	n.linkBusy = make([]sim.Cycle, n.ejBase+cfg.Nodes)
	return n
}

// reserveLink queues the message behind link slot l: the transfer starts at
// t or when the link frees, whichever is later, and holds the link for ser
// cycles. Returns the (possibly delayed) start time.
//
//simlint:shardfunnel -- serial-path only: reserveLink is called from Send on an unsharded machine; sync-point replay reserves the same table through reserveOn under the plan's disjointness proof (shard.go)
func (n *Network) reserveLink(l int, t, ser sim.Cycle) sim.Cycle {
	if b := n.linkBusy[l]; b > t {
		t = b
		n.LinkWaits++
	}
	n.linkBusy[l] = t + ser
	return t
}

// routerOf maps a node to its router in the 2-way bristled topology.
func routerOf(n addrmap.NodeID) int { return int(n) / 2 }

// Hops returns the router hop count between two nodes: Hamming distance
// between router IDs in the hypercube, plus one hop through the local
// router pair. A node messaging itself takes no network hops.
func (n *Network) Hops(a, b addrmap.NodeID) int {
	if a == b {
		return 0
	}
	return bits.OnesCount(uint(routerOf(a)^routerOf(b))) + 1
}

// Diameter returns the maximum hop count of the machine.
func (n *Network) Diameter() int {
	d := 0
	for i := 0; i < n.cfg.Nodes; i++ {
		if h := n.Hops(0, addrmap.NodeID(i)); h > d {
			d = h
		}
	}
	return d
}

func serCycles(bytes int, bpc float64) sim.Cycle {
	c := sim.Cycle(float64(bytes) / bpc)
	if c == 0 {
		c = 1
	}
	return c
}

// Send injects a message. Arrival time accounts for injection-port queuing,
// per-hop latency, serialization, and ejection-port queuing; delivery is a
// scheduled event that carries the message packed in its descriptor
// (deliverDesc), and Fire unpacks it at the destination.
//
//simlint:shardfunnel -- serial-path only: sharded machines route every window send through their shard's Endpoint (the Port interface); the Network's own Send runs unsharded
func (n *Network) Send(m Message) {
	n.Sent++
	n.BytesSent += uint64(m.Bytes())
	now := n.eng.Now()

	if m.Src == m.Dst {
		// MC loopback (e.g. home == requester replies to itself) does not
		// traverse the router.
		n.eng.Schedule(now+n.cfg.LocalLoop, deliverDesc(&m))
		return
	}

	ser := serCycles(m.Bytes(), n.cfg.BytesPerCyc)

	// Reserve bandwidth on every link of the dimension-ordered route; the
	// pipelined message advances as each link frees.
	t := now
	t = n.reserveLink(int(m.Src), t, ser)
	cur, dst := routerOf(m.Src), routerOf(m.Dst)
	for d := 0; cur != dst; d++ {
		bit := 1 << uint(d)
		if (cur^dst)&bit != 0 {
			t = n.reserveLink(n.dimBase+cur*n.dims+d, t, ser)
			cur ^= bit
		}
	}
	t = n.reserveLink(n.ejBase+int(m.Dst), t, ser)

	// Head latency over the hops plus injection and ejection serialization.
	done := t + 2*ser + sim.Cycle(n.Hops(m.Src, m.Dst))*n.cfg.HopCycles
	n.eng.Schedule(done, deliverDesc(&m))
}

// Fire runs a KDeliver event on an unsharded machine: it unpacks the
// message the descriptor carries and hands it to the deliver callback.
// Sharded machines deliver through the destination shard's Endpoint
// instead.
//
//simlint:shardfunnel -- serial-path only: the machine routes deliveries to Network.Fire solely when unsharded (endpoints own the sharded delivery path), so no parallel window can dispatch one
func (n *Network) Fire(d sim.Desc) {
	var m Message
	unpackDeliver(d, &m)
	n.Delivered++
	n.deliver(m)
}

// totSent and friends sum the serial counters with every endpoint's, so
// the published metrics are mode-independent: a sharded run reports the
// same names and — by the determinism contract — the same values.
func (n *Network) totSent() uint64 {
	t := n.Sent
	for _, ep := range n.eps {
		t += ep.Sent
	}
	return t
}

func (n *Network) totDelivered() uint64 {
	t := n.Delivered
	for _, ep := range n.eps {
		t += ep.Delivered
	}
	return t
}

func (n *Network) totBytesSent() uint64 {
	t := n.BytesSent
	for _, ep := range n.eps {
		t += ep.BytesSent
	}
	return t
}

// InFlight reports the number of sent-but-undelivered messages (staged
// cross-shard sends count as in flight until their delivery fires).
func (n *Network) InFlight() uint64 { return n.totSent() - n.totDelivered() }

// NextWork implements sim.Quiescer. The network holds no clocked state:
// every in-flight message is a scheduled delivery event, and the kernel
// never skips past a pending event, so even a full interconnect imposes no
// extra bound — the earliest delivery already caps the jump. Registered via
// AddQuiescer so the contract is explicit (and checked) rather than relying
// on the network simply not being a Clocked.
func (n *Network) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	return sim.NoWork, true
}

// RegisterMetrics publishes the interconnect's counters under the given
// scope: message and byte totals, link-contention waits, and the
// in-flight gauge the drain check uses.
func (n *Network) RegisterMetrics(s *stats.Scope) {
	s.CounterFunc("sent", n.totSent)
	s.CounterFunc("delivered", n.totDelivered)
	s.CounterFunc("bytes_sent", n.totBytesSent)
	s.CounterFunc("link_waits", func() uint64 { return n.LinkWaits })
	s.GaugeFunc("in_flight", func() float64 { return float64(n.InFlight()) })
}
