// Package node composes one DSM node: the SMT processor core (with its
// cache hierarchy), the memory controller with its protocol execution
// backend (embedded protocol processor or SMTp protocol thread), the
// node's share of physical memory holding its directory, and the glue
// between them — including the deferral of interventions that overtake an
// outstanding data reply.
package node

import (
	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/directory"
	"smtpsim/internal/memctrl"
	"smtpsim/internal/network"
	"smtpsim/internal/pipeline"
	"smtpsim/internal/ppengine"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
)

// SyncPoller is the machine-level synchronization manager interface.
type SyncPoller interface {
	Poll(globalTID int, token uint64) bool
}

// Node is one processor + memory + network-interface unit.
//
//simlint:shardlocal -- nodes are partitioned across shards (DESIGN.md §13); only the owning shard's engine ever dispatches into a node during a parallel window
type Node struct {
	ID   addrmap.NodeID
	Pipe *pipeline.Pipeline
	MC   *memctrl.MC
	PP   *ppengine.Engine // the controller's embedded processor; nil on SMTp nodes
	Dir  *directory.Directory
	Mem  *addrmap.Memory

	nodes int
	amap  *addrmap.Map
	eng   *sim.Engine
	sync  SyncPoller

	appThreads int
	imissCyc   sim.Cycle

	// Interventions that arrived while this node had an outstanding miss
	// for the same line (they may have overtaken our data reply on a
	// different virtual network); processed once the miss resolves.
	parked map[uint64][]network.Message

	DeferredInterventions uint64
}

// Config assembles the per-node pieces.
type Config struct {
	ID         addrmap.NodeID
	Nodes      int
	AddrMap    *addrmap.Map
	Engine     *sim.Engine
	Net        network.Port
	Sync       SyncPoller
	PipeCfg    pipeline.Config
	MCCfg      memctrl.Config
	PPCfg      *ppengine.Config // nil = SMTp (protocol thread backend)
	MCClockDiv sim.Cycle
	// Protocol optionally replaces the coherence protocol table
	// (extensions such as ReVive logging).
	Protocol *coherence.Table
}

// New builds and wires a node, registering its two clocked components with
// the engine for lazy ticking: the pipeline, then the memory controller,
// which ticks the embedded protocol processor (Base/Int*) on its own clock
// before each dispatch.
func New(cfg Config) *Node {
	n := &Node{
		ID:         cfg.ID,
		nodes:      cfg.Nodes,
		amap:       cfg.AddrMap,
		eng:        cfg.Engine,
		sync:       cfg.Sync,
		appThreads: cfg.PipeCfg.AppThreads,
		imissCyc:   sim.Cycle(cfg.PipeCfg.IMissCyc),
		parked:     make(map[uint64][]network.Message),
	}
	n.Mem = addrmap.NewMemory()
	n.Dir = directory.New(n.Mem, cfg.Nodes)
	n.MC = memctrl.New(cfg.MCCfg, cfg.Engine, n, n, cfg.Net)
	if cfg.Protocol != nil {
		n.MC.SetTable(cfg.Protocol)
	}
	n.Pipe = pipeline.New(cfg.PipeCfg, cfg.Engine, (*downstream)(n), (*syncAdapter)(n))
	n.Pipe.SetOwner(int32(cfg.ID))
	// A due-but-idle tick defers until input arrives. The core funnels
	// external input through Pipeline.extInput, the controller through its
	// settle (queue arrivals, and the protocol thread freeing a dispatch
	// slot); a controller whose processor runs a handler is never idle.
	eng := cfg.Engine
	n.Pipe.BindLazy(eng.AddLazy(n.Pipe, 1, 0))
	mcLazy := eng.AddLazy(n.MC, cfg.MCClockDiv, 0)
	n.MC.BindLazy(mcLazy)
	if cfg.PPCfg != nil {
		n.PP = n.MC.EmbedProcessor(*cfg.PPCfg)
	} else {
		proto := n.Pipe.Backend()
		n.MC.SetBackend(proto)
		proto.BindController(mcLazy)
	}
	return n
}

// OnNetMessage receives a delivered network message: interventions for
// lines with an outstanding local miss are deferred until the miss
// resolves; everything else enters the controller's input queues.
func (n *Node) OnNetMessage(m network.Message) {
	if m.VC == network.VCIntervention && n.Pipe.HasOutstanding(addrmap.LineAddr(m.Addr)) {
		line := addrmap.LineAddr(m.Addr)
		n.parked[line] = append(n.parked[line], m)
		n.DeferredInterventions++
		return
	}
	n.MC.EnqueueNet(m)
}

func (n *Node) unpark(line uint64) {
	if len(n.parked) == 0 {
		return // nothing parked anywhere: skip the map lookup entirely
	}
	if msgs, ok := n.parked[line]; ok {
		delete(n.parked, line)
		for _, m := range msgs {
			n.MC.EnqueueNet(m)
		}
	}
}

// ParkedInterventions reports deferred messages not yet replayed.
func (n *Node) ParkedInterventions() int {
	c := 0
	for _, v := range n.parked {
		c += len(v)
	}
	return c
}

// --- memctrl.NodeIface -----------------------------------------------

// DeliverRefill completes a miss in the core, then replays any deferred
// interventions for the line.
func (n *Node) DeliverRefill(line uint64, st cache.State, acks int, upgrade bool) {
	n.Pipe.DeliverRefill(line, st, acks, upgrade)
	n.unpark(line)
}

// DeliverNak forwards a NAK, then replays deferred interventions (the NAK
// resolves the wait exactly as a data reply would).
func (n *Node) DeliverNak(line uint64) {
	n.Pipe.DeliverNak(line)
	n.unpark(line)
}

// DeliverIAck forwards an invalidation ack.
func (n *Node) DeliverIAck(line uint64) { n.Pipe.DeliverIAck(line) }

// DeliverWBAck forwards a writeback ack.
func (n *Node) DeliverWBAck(line uint64) { n.Pipe.DeliverWBAck(line) }

// --- coherence.Env ----------------------------------------------------

// NodeID implements coherence.Env.
func (n *Node) NodeID() addrmap.NodeID { return n.ID }

// Nodes implements coherence.Env.
func (n *Node) Nodes() int { return n.nodes }

// HomeOf implements coherence.Env.
func (n *Node) HomeOf(addr uint64) addrmap.NodeID { return n.amap.HomeOf(addr) }

// DirLoad implements coherence.Env.
func (n *Node) DirLoad(addr uint64) directory.Entry { return n.Dir.Load(addr) }

// DirStore implements coherence.Env.
func (n *Node) DirStore(addr uint64, e directory.Entry) { n.Dir.Store(addr, e) }

// DirEntryAddr implements coherence.Env.
func (n *Node) DirEntryAddr(addr uint64) uint64 { return n.Dir.EntryAddr(addr) }

// CacheProbe implements coherence.Env.
func (n *Node) CacheProbe(line uint64) cache.State { return n.Pipe.CacheProbe(line) }

// CacheInvalidate implements coherence.Env.
func (n *Node) CacheInvalidate(line uint64) bool { return n.Pipe.CacheInvalidate(line) }

// CacheDowngrade implements coherence.Env.
func (n *Node) CacheDowngrade(line uint64) bool { return n.Pipe.CacheDowngrade(line) }

// --- pipeline.Downstream (via a distinct method set) -------------------

type downstream Node

func (d *downstream) EnqueueLocal(t uint8, line uint64) bool {
	return d.MC.EnqueueLocal(t, line)
}

func (d *downstream) ProtocolMiss(line uint64, dc sim.Desc) {
	d.MC.ProtocolMiss(line, dc)
}

func (d *downstream) IMiss(line uint64, dc sim.Desc) {
	// Application instruction fills come from the local memory image
	// (read-only, replicated code pages) without coherence involvement.
	d.eng.After(d.imissCyc, dc)
}

func (d *downstream) FireEffect(h uint32) { d.MC.FireEffect(h) }

// --- pipeline.SyncChecker ----------------------------------------------

type syncAdapter Node

func (s *syncAdapter) SyncPoll(localTID int, token uint64) bool {
	if s.sync == nil {
		return true
	}
	return s.sync.Poll(int(s.ID)*s.appThreads+localTID, token)
}

// LocalMissOutstanding implements coherence.Env.
func (n *Node) LocalMissOutstanding(line uint64) bool { return n.Pipe.HasOutstanding(line) }

// RegisterMetrics publishes the node's counters under the given scope:
// the pipeline under pipe, the memory controller under mc, the directory
// under dir, and (Base/Int* models) the embedded protocol processor under
// pp, plus the node-level deferred-intervention count.
func (n *Node) RegisterMetrics(s *stats.Scope) {
	n.Pipe.RegisterMetrics(s.Scope("pipe"))
	n.MC.RegisterMetrics(s.Scope("mc"))
	n.Dir.RegisterMetrics(s.Scope("dir"))
	if n.PP != nil {
		n.PP.RegisterMetrics(s.Scope("pp"))
	}
	s.CounterFunc("deferred_interventions", func() uint64 { return n.DeferredInterventions })
}
