package machine

import (
	"context"
	"fmt"
	"sort"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/directory"
	"smtpsim/internal/memctrl"
	"smtpsim/internal/network"
	"smtpsim/internal/node"
	"smtpsim/internal/pipeline"
	"smtpsim/internal/ppengine"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
)

// Model is one of the paper's five machine models (Table 4).
type Model int

// Machine models.
const (
	Base       Model = iota // non-integrated PP/MC at 400 MHz, 512 KB dir cache
	IntPerfect              // integrated PP/MC at CPU clock, perfect dir cache
	Int512KB                // integrated PP/MC at CPU/2, 512 KB dir cache
	Int64KB                 // integrated PP/MC at CPU/2, 64 KB dir cache
	SMTp                    // integrated standard MC at CPU/2, protocol thread
)

var modelNames = []string{"Base", "IntPerfect", "Int512KB", "Int64KB", "SMTp"}

// String names the model.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return "Model?"
}

// Models lists all five models in paper order.
func Models() []Model { return []Model{Base, IntPerfect, Int512KB, Int64KB, SMTp} }

// Config describes a machine to build.
type Config struct {
	Model      Model
	Nodes      int
	AppThreads int     // application threads per node (1, 2, 4)
	CPUGHz     float64 // 2 or 4

	// PipeTweak optionally adjusts the pipeline configuration (ablations:
	// LAS off, cache sizes, ...).
	PipeTweak func(*pipeline.Config)

	// LocalQueueCap overrides the local miss interface depth (stress
	// testing; 0 = the paper's 16).
	LocalQueueCap int

	// Protocol optionally replaces the coherence protocol on every node
	// (extension tables such as coherence.NewReviveTable).
	Protocol *coherence.Table

	// Shards partitions the machine's nodes across that many OS threads
	// with conservative time-quantum synchronization (DESIGN.md §13). The
	// result is byte-identical at any shard count; 0 or 1 runs serially.
	// Clamped to the largest divisor of Nodes at or below the request, and
	// forced to 1 on the reference kernel and when SampleInterval is set
	// (the series recorder needs the single global engine).
	Shards int

	// SampleInterval, when non-zero, records a time-series sample of every
	// registered metric each SampleInterval cycles into a bounded ring
	// buffer (see Machine.Recorder).
	SampleInterval sim.Cycle
	// SampleCapacity bounds the time-series ring buffer (0 = 1024 samples;
	// older samples are dropped, newest kept).
	SampleCapacity int

	// ReferenceKernel builds the machine on the reference engine
	// (sim.NewReferenceEngine): the same kernel with every lazy component
	// registered as a plain one, so every component ticks at every due
	// cycle and, the cores ticking every cycle, no cycle is skipped.
	// The two are observably identical (the differential tests pin this);
	// the reference kernel exists as that test's oracle and for kernel-bug
	// bisection. Its snapshots restore into skipping machines and vice
	// versa.
	ReferenceKernel bool
}

// Machine is a built system.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Net   *network.Network
	Nodes []*node.Node
	Sync  *SyncManager
	AMap  *addrmap.Map

	// Reg is the machine-wide metrics registry. Every subsystem registers
	// its counters here under stable dotted names (node<i>.pipe.l2.misses,
	// net.sent, ...); snapshot it with Reg.Snapshot().
	Reg *stats.Registry

	// ShardReg holds the shard.* execution telemetry of a sharded run
	// (quantum counts, barrier waits, cross-shard traffic). It is a
	// separate registry because its values depend on the shard count — an
	// execution knob outside the config identity — and must never leak
	// into the deterministic Reg snapshot that WriteRunJSON serializes.
	// Nil on serial machines.
	ShardReg *stats.Registry

	// Sharded-execution state (nil/empty when Cfg.Shards <= 1).
	shards  []*shard
	nodesPS int       // nodes per shard
	quantum sim.Cycle // base (narrowest) lookahead quantum
	hop     sim.Cycle // network hop latency (the lookahead itself)
	bar     *treeBarrier

	// jitter, when set (tests only), runs at the top of every worker window
	// to perturb the goroutine schedule; byte-identical results under
	// aggressive jitter are the sharding determinism argument's stress test.
	jitter func()

	// Coordinator telemetry, published through ShardReg.
	quanta         uint64 // parallel windows dispatched
	barrierWaits   uint64 // worker arrivals at the quantum barrier
	crossMsgs      uint64 // staged sends replayed at sync points
	serialWin      uint64 // lockstep windows forced by sync safety
	serialCycles   uint64 // cycles stepped under lockstep
	parallelCycles uint64 // cycles covered by dispatched parallel windows
	parallelReps   uint64 // replay passes partitioned across the workers
	// quantaByQ[i] counts parallel windows whose adaptive quantum was
	// 2^i cycles (i up to log2(maxQuantum)); the shard.quantum_* metrics.
	quantaByQ [maxQuantumLog + 1]uint64

	recorder *stats.Recorder
}

// maxQuantum is the widest adaptive quantum: a full Done-poll batch. The
// base quantum (largest power of two at or below the hop latency) is the
// floor; the window planner widens between the two as the safety bounds
// allow (see shard.go).
const (
	maxQuantum    = 256
	maxQuantumLog = 8 // log2(maxQuantum)
)

// shard is one partition of the machine: a contiguous node range driven by
// its own engine and network endpoint. The coordinator dispatches work to
// the shard workers through the tree barrier (barrier.go).
type shard struct {
	eng    *sim.Engine
	ep     *network.Endpoint
	lo, hi int // node range [lo, hi)
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.Nodes < 1 {
		panic("machine: need at least one node")
	}
	if cfg.CPUGHz == 0 {
		cfg.CPUGHz = 2
	}
	if cfg.AppThreads == 0 {
		cfg.AppThreads = 1
	}
	// Normalize the shard count: at least 1, at most Nodes, a divisor of
	// Nodes (equal contiguous partitions), and serial whenever another
	// feature needs the single global engine.
	nsh := cfg.Shards
	if nsh < 1 {
		nsh = 1
	}
	if nsh > cfg.Nodes {
		nsh = cfg.Nodes
	}
	if cfg.ReferenceKernel || cfg.SampleInterval > 0 {
		nsh = 1
	}
	for cfg.Nodes%nsh != 0 {
		nsh--
	}
	cfg.Shards = nsh

	m := &Machine{
		Cfg:  cfg,
		Sync: NewSyncManager(),
		AMap: addrmap.NewMap(cfg.Nodes),
		Reg:  stats.NewRegistry(),
	}
	if cfg.ReferenceKernel {
		m.Eng = sim.NewReferenceEngine(m.fire)
	} else {
		m.Eng = sim.NewEngine(m.fire)
	}
	hop := sim.Cycle(25 * cfg.CPUGHz)
	m.Net = network.New(network.Config{
		Nodes:       cfg.Nodes,
		HopCycles:   hop,
		BytesPerCyc: 1.0 / cfg.CPUGHz,
		LocalLoop:   4,
	}, m.Eng, func(msg network.Message) {
		m.Nodes[msg.Dst].OnNetMessage(msg)
	})
	if nsh > 1 {
		// The conservative lookahead quantum: the largest power of two at
		// or below the network hop latency. A power of two divides the
		// 256-cycle Done-poll batches evenly, so quantum edges and batch
		// edges coincide and the reported cycle count stays identical to a
		// serial run; staying at or below one hop guarantees every
		// cross-shard message sent inside a window arrives strictly after
		// the window's edge, where it is injected during replay.
		m.quantum = maxQuantum
		for m.quantum > hop {
			m.quantum >>= 1
		}
		if m.quantum < 1 {
			m.quantum = 1
		}
		m.hop = hop
		m.nodesPS = cfg.Nodes / nsh
		for k := 0; k < nsh; k++ {
			seng := m.Eng
			if k > 0 {
				seng = sim.NewEngine(m.fire)
			}
			ep := m.Net.NewEndpoint(seng)
			m.shards = append(m.shards, &shard{
				eng: seng, ep: ep,
				lo: k * m.nodesPS, hi: (k + 1) * m.nodesPS,
			})
		}
	}

	smtp := cfg.Model == SMTp
	mcDiv := sim.Cycle(2)
	if cfg.Model == IntPerfect {
		mcDiv = 1
	}
	if cfg.Model == Base {
		mcDiv = sim.Cycle(cfg.CPUGHz * 1000 / 400) // 400 MHz controller
	}
	lmi := cfg.LocalQueueCap
	if lmi == 0 {
		lmi = 16
	}
	mcCfg := memctrl.Config{
		ClockDiv:       mcDiv,
		SDRAMAccessCyc: sim.Cycle(80 * cfg.CPUGHz),
		SDRAMXferCyc:   sim.Cycle(40 * cfg.CPUGHz),
		LocalQueueCap:  lmi,
	}
	if cfg.Model == Base {
		mcCfg.PIExtraCycles = sim.Cycle(20 * cfg.CPUGHz)
	}

	var ppCfg *ppengine.Config
	if !smtp {
		dirBytes := 512 * 1024
		switch cfg.Model {
		case IntPerfect:
			dirBytes = 0
		case Int64KB:
			dirBytes = 64 * 1024
		}
		// A directory-cache miss costs an SDRAM access measured in PP
		// (= memory controller) cycles.
		penalty := int(80 * cfg.CPUGHz / float64(mcDiv))
		c := ppengine.DefaultConfig(dirBytes, penalty)
		ppCfg = &c
	}

	for i := 0; i < cfg.Nodes; i++ {
		pipeCfg := pipeline.DefaultConfig(cfg.AppThreads, smtp)
		if cfg.PipeTweak != nil {
			cfg.PipeTweak(&pipeCfg)
		}
		neng, nport := m.Eng, network.Port(m.Net)
		if nsh > 1 {
			s := m.shards[i/m.nodesPS]
			neng, nport = s.eng, s.ep
		}
		m.Nodes = append(m.Nodes, node.New(node.Config{
			ID:         addrmap.NodeID(i),
			Nodes:      cfg.Nodes,
			AddrMap:    m.AMap,
			Engine:     neng,
			Net:        nport,
			Sync:       m.Sync,
			PipeCfg:    pipeCfg,
			MCCfg:      mcCfg,
			PPCfg:      ppCfg,
			MCClockDiv: mcDiv,
			Protocol:   cfg.Protocol,
		}))
	}
	// Keyed scheduling: tag every clocked component with its global serial
	// position (node order x components per node) so events carry provenance
	// keys. Sharded machines need the keys for cross-shard replay to
	// interleave deliveries in the exact order a serial run would produce;
	// serial machines enable them too (a no-op for ordering — single-engine
	// keyed order equals the classic FIFO) so snapshots taken at any shard
	// count, on either kernel, carry position keys that restore portably at
	// any other (DESIGN.md §14).
	if nsh > 1 {
		compsPerNode := m.shards[0].eng.NumClocked() / m.nodesPS
		for _, s := range m.shards {
			s.eng.EnableKeys(uint64(compsPerNode * s.lo))
		}
	} else {
		m.Eng.EnableKeys(0)
	}
	if nsh > 1 {
		// Refill hints: every staged send's delivery time is announced to
		// the destination pipeline the moment replay schedules it, and each
		// pipeline learns which addresses are homed remotely — together the
		// inputs SyncHorizon needs to bound memory-stalled sync waits
		// (DESIGN.md §13). The observer runs either with all shards parked
		// or from the replay partition that owns msg.Dst's shard, so the
		// hint write is always shard-private.
		m.Net.SetReplayObserver(func(msg network.Message, done sim.Cycle) {
			m.Nodes[msg.Dst].Pipe.RefillHint(msg.Addr, done)
		})
		for i, n := range m.Nodes {
			id := addrmap.NodeID(i)
			n.Pipe.SetRemoteHome(func(addr uint64) bool {
				return addrmap.IsAppData(addr) && m.AMap.HomeOf(addr) != id
			})
		}
	}
	if nsh > 1 {
		m.ShardReg = stats.NewRegistry()
		sc := m.ShardReg.Scope("shard")
		sc.CounterFunc("quanta", func() uint64 { return m.quanta })
		sc.CounterFunc("barrier_waits", func() uint64 { return m.barrierWaits })
		sc.CounterFunc("cross_msgs", func() uint64 { return m.crossMsgs })
		sc.CounterFunc("serial_windows", func() uint64 { return m.serialWin })
		sc.CounterFunc("serial_cycles", func() uint64 { return m.serialCycles })
		sc.CounterFunc("parallel_cycles", func() uint64 { return m.parallelCycles })
		sc.CounterFunc("parallel_replays", func() uint64 { return m.parallelReps })
		// The adaptive-quantum histogram: one counter per power-of-two
		// quantum the planner can choose, base through maxQuantum.
		for lg := 0; lg <= maxQuantumLog; lg++ {
			q := sim.Cycle(1) << uint(lg)
			if q < m.quantum {
				continue
			}
			i := lg
			sc.CounterFunc(fmt.Sprintf("quantum_%d", q), func() uint64 { return m.quantaByQ[i] })
		}
		for k, s := range m.shards {
			seng := s.eng
			ks := m.ShardReg.Scope(fmt.Sprintf("shard%d", k))
			ks.CounterFunc("stepped_cycles", func() uint64 { return uint64(seng.Now()) - seng.SkippedCycles() })
			ks.CounterFunc("skipped_cycles", func() uint64 { return seng.SkippedCycles() })
		}
	}
	m.Sync.onWake = func(gtid int) {
		m.Nodes[gtid/cfg.AppThreads].Pipe.Wake()
	}
	m.Net.RegisterMetrics(m.Reg.Scope("net"))
	for i, n := range m.Nodes {
		n.RegisterMetrics(m.Reg.Scope(fmt.Sprintf("node%d", i)))
	}
	if cfg.SampleInterval > 0 {
		m.recorder = stats.NewRecorder(m.Reg, cfg.SampleCapacity)
		m.Eng.AddClocked(sim.ClockedFunc(func(now sim.Cycle) {
			// A sample reads every component's counters: settle the
			// lazily-deferred ticks first, so the series is the same on
			// both kernels.
			m.Eng.FlushDeferred()
			m.recorder.Record(uint64(now))
		}), cfg.SampleInterval, 0)
	}
	return m
}

// fire is every engine's fire function: it routes a due event by its
// descriptor's kind to the component that scheduled it on the owning node.
// Deliveries go to the network (to the destination shard's endpoint on a
// sharded machine), kinds below network.KDeliver to the node's pipeline,
// and the rest to its memory controller. Restored events fire through it
// exactly like live ones.
func (m *Machine) fire(d sim.Desc) {
	switch {
	case d.Kind == network.KDeliver:
		if len(m.shards) > 0 {
			m.epOf(addrmap.NodeID(d.Owner)).Fire(d)
		} else {
			m.Net.Fire(d)
		}
	case d.Kind < network.KDeliver:
		m.Nodes[d.Owner].Pipe.Fire(d)
	default:
		m.Nodes[d.Owner].MC.Fire(d)
	}
}

// Recorder returns the cycle-sampled time-series recorder, or nil when
// Config.SampleInterval is zero.
func (m *Machine) Recorder() *stats.Recorder { return m.recorder }

// GlobalThreads returns the total application thread count.
func (m *Machine) GlobalThreads() int { return m.Cfg.Nodes * m.Cfg.AppThreads }

// SetSource installs the instruction source for a global thread ID.
func (m *Machine) SetSource(gtid int, src pipeline.InstrSource) {
	n := gtid / m.Cfg.AppThreads
	m.Nodes[n].Pipe.SetSource(gtid%m.Cfg.AppThreads, src)
}

// Done reports whether every application thread has drained and the memory
// system has quiesced.
func (m *Machine) Done() bool {
	for _, n := range m.Nodes {
		if !n.Pipe.AppDone() {
			return false
		}
		if n.MC.QueuedMessages() != 0 {
			return false
		}
		if n.ParkedInterventions() != 0 {
			return false
		}
		if n.PP != nil && n.PP.Busy() {
			return false
		}
		if !n.Pipe.ProtoQuiesced() {
			return false
		}
	}
	return m.Net.InFlight() == 0 && m.pendingEvents() == 0
}

// pendingEvents sums scheduled-event counts across every engine (one on a
// serial machine, one per shard otherwise).
func (m *Machine) pendingEvents() int {
	if len(m.shards) == 0 {
		return m.Eng.PendingEvents()
	}
	n := 0
	for _, s := range m.shards {
		n += s.eng.PendingEvents()
	}
	return n
}

// SkippedCycles sums the kernel's skipped-cycle count across every engine.
// A machine restored from a snapshot starts from the snapshot's count, so
// a reference machine restored from a skipping machine's snapshot reports
// the cycles the skipping machine elided before it.
func (m *Machine) SkippedCycles() uint64 {
	if len(m.shards) == 0 {
		return m.Eng.SkippedCycles()
	}
	var n uint64
	for _, s := range m.shards {
		n += s.eng.SkippedCycles()
	}
	return n
}

// flushDeferred settles lazily-deferred component ticks on every engine.
func (m *Machine) flushDeferred() {
	if len(m.shards) == 0 {
		m.Eng.FlushDeferred()
		return
	}
	for _, s := range m.shards {
		s.eng.FlushDeferred()
	}
}

// Run steps the machine until completion or maxCycles, returning the cycle
// count and whether it completed.
func (m *Machine) Run(maxCycles sim.Cycle) (sim.Cycle, bool) {
	return m.RunContext(context.Background(), maxCycles)
}

// ctxCheckBatches is how many 256-step event batches RunContext lets pass
// between context polls. Simulated time advances slowly relative to host
// time (well under 1M cycles/s on commodity hosts), so the poll interval
// is denominated in engine batches, not simulated cycles: 64 batches is at
// most ~1M simulated cycles but only ~16K engine steps, keeping
// cancellation latency in the milliseconds while staying off the hot path.
const ctxCheckBatches = 64

// RunContext steps the machine until completion, maxCycles, or context
// cancellation, whichever comes first. On cancellation it returns the
// cycles simulated so far with done=false; the machine is left mid-flight
// and must not be resumed.
func (m *Machine) RunContext(ctx context.Context, maxCycles sim.Cycle) (sim.Cycle, bool) {
	if ctx.Err() != nil {
		return 0, false
	}
	// Lazily-deferred core ticks must be settled before callers read any
	// component state (statistics harvest, coherence checks).
	defer m.flushDeferred()
	if len(m.shards) > 1 {
		return m.runSharded(ctx, maxCycles)
	}
	start := m.Eng.Now()
	limit := start + maxCycles
	if limit < start {
		limit = sim.NoWork // wrapped: effectively unbounded
	}
	batches := 0
	for m.Eng.Now() < limit {
		// Advance in 256-cycle batches, checking termination at each batch
		// boundary (it walks all queues). Bounding each Advance at the batch
		// end keeps the Done-poll cadence — and therefore the reported cycle
		// count — identical between the skipping and reference kernels.
		batchEnd := m.Eng.Now() + 256
		if batchEnd > limit || batchEnd < m.Eng.Now() {
			batchEnd = limit
		}
		for m.Eng.Now() < batchEnd {
			m.Eng.Advance(batchEnd)
		}
		if m.Done() {
			return m.Eng.Now() - start, true
		}
		if batches++; batches >= ctxCheckBatches {
			batches = 0
			if ctx.Err() != nil {
				return m.Eng.Now() - start, false
			}
		}
	}
	return m.Eng.Now() - start, m.Done()
}

// CheckCoherence validates the machine-wide coherence invariants after a
// quiesced run; it returns a descriptive error for the first violation.
//
// Invariants: at most one writable (E/M) copy of any application line in
// the system; if a writable copy exists the home directory is Dirty with
// that node as owner; every cached copy's node is in the home's sharer
// vector (stale sharers are allowed — silent drops); no busy directory
// states; per-node L1 contents are included in the L2; no leaked MSHRs.
func (m *Machine) CheckCoherence() error {
	type copyInfo struct {
		node  addrmap.NodeID
		state cache.State
	}
	copies := map[uint64][]copyInfo{}
	for _, n := range m.Nodes {
		nid := n.ID
		n.Pipe.L2Lines(func(tag uint64, st cache.State) {
			if addrmap.IsAppData(tag) {
				copies[tag] = append(copies[tag], copyInfo{nid, st})
			}
		})
		if err := n.Pipe.CheckInclusion(); err != nil {
			return fmt.Errorf("node %d: %w", nid, err)
		}
		if err := n.Pipe.CheckNoLeaks(); err != nil {
			return fmt.Errorf("node %d: %w", nid, err)
		}
	}
	// Iterate lines in sorted order so the first violation reported (and
	// therefore the error text) is the same on every run.
	lines := make([]uint64, 0, len(copies))
	for line := range copies {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		cs := copies[line]
		home := m.AMap.HomeOf(line)
		e := m.Nodes[home].Dir.Load(line)
		if e.State.Busy() {
			return fmt.Errorf("line %#x: home %d busy (%v) after quiesce", line, home, e.State)
		}
		writers := 0
		for _, c := range cs {
			if c.state.Writable() {
				writers++
				if e.State != directory.Dirty || e.Owner != c.node {
					return fmt.Errorf("line %#x: node %d holds %v but home says %v owner %d",
						line, c.node, c.state, e.State, e.Owner)
				}
			} else if c.state == cache.Shared {
				switch e.State {
				case directory.Shared:
					if !e.HasSharer(c.node) {
						return fmt.Errorf("line %#x: node %d caches S but is not a sharer (%+v)",
							line, c.node, e)
					}
				case directory.Dirty:
					return fmt.Errorf("line %#x: node %d caches S but home says Dirty(%d)",
						line, c.node, e.Owner)
				case directory.Unowned:
					return fmt.Errorf("line %#x: node %d caches S but home says Unowned", line, c.node)
				}
			}
		}
		if writers > 1 {
			return fmt.Errorf("line %#x: %d writable copies", line, writers)
		}
	}
	// Every Dirty directory entry's owner either caches the line writable
	// or silently dropped a clean-exclusive copy (allowed).
	return nil
}
