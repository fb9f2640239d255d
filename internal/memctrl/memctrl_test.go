package memctrl

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/directory"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/ppengine"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
)

// testNode implements coherence.Env and NodeIface for controller tests.
type testNode struct {
	id    addrmap.NodeID
	nodes int
	amap  *addrmap.Map
	dir   *directory.Directory
	l2    map[uint64]cache.State

	refills []refillRec
	naks    []uint64
	iacks   []uint64
	wbacks  []uint64
	at      []sim.Cycle
	eng     *sim.Engine
}

type refillRec struct {
	line    uint64
	st      cache.State
	acks    int
	upgrade bool
	when    sim.Cycle
}

func newTestNode(id addrmap.NodeID, nodes int, eng *sim.Engine) *testNode {
	return &testNode{
		id: id, nodes: nodes, eng: eng,
		amap: addrmap.NewMap(nodes),
		dir:  directory.New(addrmap.NewMemory(), nodes),
		l2:   map[uint64]cache.State{},
	}
}

func (n *testNode) NodeID() addrmap.NodeID               { return n.id }
func (n *testNode) Nodes() int                           { return n.nodes }
func (n *testNode) HomeOf(a uint64) addrmap.NodeID       { return n.amap.HomeOf(a) }
func (n *testNode) DirLoad(a uint64) directory.Entry     { return n.dir.Load(a) }
func (n *testNode) DirStore(a uint64, e directory.Entry) { n.dir.Store(a, e) }
func (n *testNode) DirEntryAddr(a uint64) uint64         { return n.dir.EntryAddr(a) }
func (n *testNode) CacheProbe(l uint64) cache.State      { return n.l2[l] }
func (n *testNode) CacheInvalidate(l uint64) bool {
	was := n.l2[l]
	delete(n.l2, l)
	return was == cache.Modified
}
func (n *testNode) CacheDowngrade(l uint64) bool {
	was := n.l2[l]
	if was.Writable() {
		n.l2[l] = cache.Shared
	}
	return was == cache.Modified
}
func (n *testNode) DeliverRefill(line uint64, st cache.State, acks int, upgrade bool) {
	n.refills = append(n.refills, refillRec{line, st, acks, upgrade, n.eng.Now()})
	if !upgrade {
		n.l2[line] = st
	}
}
func (n *testNode) DeliverNak(line uint64)   { n.naks = append(n.naks, line) }
func (n *testNode) DeliverIAck(line uint64)  { n.iacks = append(n.iacks, line) }
func (n *testNode) DeliverWBAck(line uint64) { n.wbacks = append(n.wbacks, line) }

// rig is a little machine of N nodes with embedded protocol processors.
type rig struct {
	eng   *sim.Engine
	net   *network.Network
	nodes []*testNode
	mcs   []*MC
	// completions records the cycle of every fired event kind the rig's
	// components do not claim (the pipeline's, in a real machine).
	completions []sim.Cycle
}

// fire is the rig's fire function: deliveries go to the network,
// controller kinds to the owning controller, anything else is recorded.
func (r *rig) fire(d sim.Desc) {
	switch {
	case d.Kind == network.KDeliver:
		r.net.Fire(d)
	case d.Kind >= KMCDeferred:
		r.mcs[d.Owner].Fire(d)
	default:
		r.completions = append(r.completions, r.eng.Now())
	}
}

func newRig(t testing.TB, nodes int, cfg Config) *rig {
	t.Helper()
	r := &rig{}
	r.eng = sim.NewEngine(r.fire)
	r.net = network.New(network.Config{Nodes: nodes, HopCycles: 50, BytesPerCyc: 0.5, LocalLoop: 4},
		r.eng, func(m network.Message) { r.mcs[m.Dst].EnqueueNet(m) })
	for i := 0; i < nodes; i++ {
		tn := newTestNode(addrmap.NodeID(i), nodes, r.eng)
		mc := New(cfg, r.eng, tn, tn, r.net)
		mc.EmbedProcessor(ppengine.DefaultConfig(0, 0))
		r.eng.AddClocked(sim.ClockedFunc(mc.Tick), cfg.ClockDiv, 0)
		r.nodes = append(r.nodes, tn)
		r.mcs = append(r.mcs, mc)
	}
	return r
}

func (r *rig) run(cycles int) {
	for i := 0; i < cycles; i++ {
		r.eng.Step()
	}
}

func defCfg() Config {
	return Config{ClockDiv: 2, SDRAMAccessCyc: 160, SDRAMXferCyc: 80, LocalQueueCap: 16}
}

func TestLocalQueueCapacity(t *testing.T) {
	cfg := defCfg()
	cfg.LocalQueueCap = 2
	r := newRig(t, 1, cfg)
	if !r.mcs[0].EnqueueLocal(uint8(coherence.MsgPIRead), 0) {
		t.Fatal("first enqueue must succeed")
	}
	if !r.mcs[0].EnqueueLocal(uint8(coherence.MsgPIRead), 128) {
		t.Fatal("second enqueue must succeed")
	}
	if r.mcs[0].EnqueueLocal(uint8(coherence.MsgPIRead), 256) {
		t.Fatal("third enqueue must fail (queue cap 2)")
	}
	if r.mcs[0].LocalFull != 1 {
		t.Fatal("LocalFull not counted")
	}
}

// TestLocalQueueCountsInTransitRequests pins the local miss interface of a
// non-integrated (Base) controller: a request crossing the system bus
// holds its queue slot, so in-transit requests count against
// LocalQueueCap without being dispatchable, and once they arrive they
// dispatch in the order they were enqueued.
func TestLocalQueueCountsInTransitRequests(t *testing.T) {
	cfg := defCfg()
	cfg.LocalQueueCap = 2
	cfg.PIExtraCycles = 40
	r := newRig(t, 1, cfg)
	mc := r.mcs[0]
	for _, line := range []uint64{0, 128} {
		if !mc.EnqueueLocal(uint8(coherence.MsgPIRead), line) {
			t.Fatalf("enqueue of line %#x failed", line)
		}
	}
	if mc.EnqueueLocal(uint8(coherence.MsgPIRead), 256) {
		t.Fatal("third enqueue must fail: two in-transit requests fill the 2-slot queue")
	}
	if mc.LocalFull != 1 || mc.QueuedMessages() != 0 {
		t.Fatalf("LocalFull %d, queued %d; want 1 and 0 while both requests cross the bus",
			mc.LocalFull, mc.QueuedMessages())
	}
	r.run(2000)
	rf := r.nodes[0].refills
	if len(rf) != 2 || rf[0].line != 0 || rf[1].line != 128 {
		t.Fatalf("refills %+v; want line 0, then line 128", rf)
	}
	if mc.Dispatched != 2 || mc.QueuedMessages() != 0 || len(mc.local) != 0 {
		t.Fatalf("dispatched %d, queued %d, %d local slots after drain; want 2, 0, 0",
			mc.Dispatched, mc.QueuedMessages(), len(mc.local))
	}
}

// restoreInto saves src's state and loads it into a fresh controller of
// config cfg, returning that controller and the decode error.
func restoreInto(t *testing.T, src *MC, cfg Config) (*MC, error) {
	t.Helper()
	e := snapshot.NewEncoder()
	src.SaveState(e)
	d, err := snapshot.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	mc := newRig(t, 1, cfg).mcs[0]
	mc.LoadState(d)
	return mc, d.Err()
}

// TestLoadStateRejectsWrongQueuedCount: an idle controller whose snapshot
// records 5 queued messages must not restore. Restored, it would report
// work it can never dispatch on every controller clock, so the machine
// could never drain and a resumed run would step to its cycle budget.
func TestLoadStateRejectsWrongQueuedCount(t *testing.T) {
	src := newRig(t, 1, defCfg()).mcs[0]
	src.queued = 5 // the stored count; every queue is empty
	mc, err := restoreInto(t, src, defCfg())
	if err == nil {
		t.Fatalf("restore accepted a queued count of 5 over empty queues (QueuedMessages %d)", mc.QueuedMessages())
	}
}

// TestLoadStateChecksLocalSlots: a local queue longer than its capacity
// fails the restore, and so does an unarrived slot on an integrated
// controller, which schedules no bus crossing that could ever fill it. On
// a non-integrated controller the same unarrived slot restores.
func TestLoadStateChecksLocalSlots(t *testing.T) {
	base := defCfg()
	base.LocalQueueCap = 2
	base.PIExtraCycles = 40

	over := newRig(t, 1, base).mcs[0]
	over.local = make([]localSlot, 3)
	if _, err := restoreInto(t, over, base); err == nil {
		t.Error("restore accepted 3 local slots in a 2-slot queue")
	}

	transit := newRig(t, 1, base).mcs[0]
	if !transit.EnqueueLocal(uint8(coherence.MsgPIRead), 0) {
		t.Fatal("enqueue failed")
	}
	if _, err := restoreInto(t, transit, defCfg()); err == nil {
		t.Error("an integrated controller restored an unarrived local slot")
	}
	mc, err := restoreInto(t, transit, base)
	if err != nil {
		t.Fatalf("non-integrated controller rejected its in-transit slot: %v", err)
	}
	if len(mc.local) != 1 || mc.local[0].arrived || mc.QueuedMessages() != 0 {
		t.Fatalf("restored local queue %+v with %d queued; want one unarrived slot", mc.local, mc.QueuedMessages())
	}
}

func TestLocalReadRefillTiming(t *testing.T) {
	r := newRig(t, 1, defCfg())
	addr := uint64(0)
	r.mcs[0].EnqueueLocal(uint8(coherence.MsgPIRead), addr)
	r.run(1000)
	n := r.nodes[0]
	if len(n.refills) != 1 {
		t.Fatalf("want 1 refill, got %d", len(n.refills))
	}
	rf := n.refills[0]
	if rf.st != cache.Exclusive || rf.acks != 0 {
		t.Fatalf("local unowned read must refill Exclusive/0 acks: %+v", rf)
	}
	// The refill cannot beat the 160-cycle SDRAM access.
	if rf.when < 160 {
		t.Fatalf("refill at %d beat the SDRAM access time", rf.when)
	}
	// And should not be grossly later (handler is short, overlapped fetch).
	if rf.when > 400 {
		t.Fatalf("refill at %d: overlap of handler and SDRAM fetch broken", rf.when)
	}
	if e := n.dir.Load(addr); e.State != directory.Dirty || e.Owner != 0 {
		t.Fatalf("directory after local read: %+v", e)
	}
}

func TestTwoNodeReadTransaction(t *testing.T) {
	r := newRig(t, 2, defCfg())
	addr := uint64(0) // homed at node 0
	r.mcs[1].EnqueueLocal(uint8(coherence.MsgPIRead), addr)
	r.run(3000)
	n1 := r.nodes[1]
	if len(n1.refills) != 1 {
		t.Fatalf("requester refills=%d, want 1", len(n1.refills))
	}
	if n1.refills[0].st != cache.Exclusive {
		t.Fatal("eager-exclusive reply expected")
	}
	if e := r.nodes[0].dir.Load(addr); e.State != directory.Dirty || e.Owner != 1 {
		t.Fatalf("home directory: %+v, want Dirty(1)", e)
	}
	// Remote read must be slower than the pure SDRAM access.
	if n1.refills[0].when < 300 {
		t.Fatalf("remote refill at %d implausibly fast", n1.refills[0].when)
	}
}

func TestThreeHopTransaction(t *testing.T) {
	r := newRig(t, 4, defCfg())
	addr := uint64(0) // homed at node 0
	// Node 3 owns the line dirty.
	r.nodes[0].dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 3})
	r.nodes[3].l2[addr] = cache.Modified
	// Node 1 reads.
	r.mcs[1].EnqueueLocal(uint8(coherence.MsgPIRead), addr)
	r.run(6000)
	n1 := r.nodes[1]
	if len(n1.refills) != 1 || n1.refills[0].st != cache.Shared {
		t.Fatalf("3-hop read refill wrong: %+v", n1.refills)
	}
	if r.nodes[3].l2[addr] != cache.Shared {
		t.Fatal("owner must be downgraded")
	}
	e := r.nodes[0].dir.Load(addr)
	if e.State != directory.Shared || !e.HasSharer(1) || !e.HasSharer(3) {
		t.Fatalf("home directory after SHWB: %+v", e)
	}
}

func TestInvalidationAcksFlow(t *testing.T) {
	r := newRig(t, 4, defCfg())
	addr := uint64(0)
	r.nodes[0].dir.Store(addr, directory.Entry{State: directory.Shared, Sharers: 0b1100}) // 2,3
	r.nodes[2].l2[addr] = cache.Shared
	r.nodes[3].l2[addr] = cache.Shared
	// Node 1 writes.
	r.mcs[1].EnqueueLocal(uint8(coherence.MsgPIWrite), addr)
	r.run(8000)
	n1 := r.nodes[1]
	if len(n1.refills) != 1 || n1.refills[0].acks != 2 {
		t.Fatalf("PUTX with 2 acks expected: %+v", n1.refills)
	}
	if len(n1.iacks) != 2 {
		t.Fatalf("requester must collect 2 IACKs, got %d", len(n1.iacks))
	}
	if _, ok := r.nodes[2].l2[addr]; ok {
		t.Fatal("sharer 2 not invalidated")
	}
	if _, ok := r.nodes[3].l2[addr]; ok {
		t.Fatal("sharer 3 not invalidated")
	}
	if e := r.nodes[0].dir.Load(addr); e.State != directory.Dirty || e.Owner != 1 {
		t.Fatalf("home directory: %+v", e)
	}
}

func TestNakOnBusyLine(t *testing.T) {
	r := newRig(t, 2, defCfg())
	addr := uint64(0)
	r.nodes[0].dir.Store(addr, directory.Entry{State: directory.BusyExcl, Owner: 1, Pending: 1})
	r.mcs[1].EnqueueLocal(uint8(coherence.MsgPIRead), addr)
	r.run(3000)
	if len(r.nodes[1].naks) != 1 {
		t.Fatalf("busy line must NAK the requester, got %v", r.nodes[1].naks)
	}
}

func TestWritebackFlow(t *testing.T) {
	r := newRig(t, 2, defCfg())
	addr := uint64(0)
	r.nodes[0].dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 1})
	r.mcs[1].EnqueueLocal(uint8(coherence.MsgPIWriteback), addr)
	r.run(3000)
	if len(r.nodes[1].wbacks) != 1 {
		t.Fatal("writeback must be acknowledged")
	}
	if e := r.nodes[0].dir.Load(addr); e.State != directory.Unowned {
		t.Fatalf("directory after WB: %+v", e)
	}
	if r.mcs[0].MemWrites != 1 {
		t.Fatalf("WB must write SDRAM once, got %d", r.mcs[0].MemWrites)
	}
}

func TestRepliesDispatchBeforeRequests(t *testing.T) {
	r := newRig(t, 1, defCfg())
	mc := r.mcs[0]
	mc.EnqueueLocal(uint8(coherence.MsgPIRead), 0)
	mc.EnqueueNet(network.Message{Src: 0, Dst: 0, Type: uint8(coherence.MsgNAK), Addr: 128, VC: network.VCReply})
	// One MC tick dispatches one message; the reply must win. After 20
	// cycles the NAK handler has retired but the read's SDRAM access
	// (160 cycles) cannot have completed, proving the reply went first.
	r.run(20)
	if len(r.nodes[0].naks) != 1 {
		t.Fatal("reply (NAK) must dispatch before the request")
	}
	if len(r.nodes[0].refills) != 0 {
		t.Fatal("request refill cannot have completed yet")
	}
}

func TestPIExtraCyclesDelaysBase(t *testing.T) {
	fast := newRig(t, 1, defCfg())
	slowCfg := defCfg()
	slowCfg.PIExtraCycles = 40
	slow := newRig(t, 1, slowCfg)
	fast.mcs[0].EnqueueLocal(uint8(coherence.MsgPIRead), 0)
	slow.mcs[0].EnqueueLocal(uint8(coherence.MsgPIRead), 0)
	fast.run(2000)
	slow.run(2000)
	f, s := fast.nodes[0].refills[0].when, slow.nodes[0].refills[0].when
	// Both crossings (2 x 40) are paid, modulo MC-tick quantization.
	if s < f+70 {
		t.Fatalf("non-integrated path (%d) must pay both bus crossings over integrated (%d)", s, f)
	}
}

func TestProtocolMissSeparateBus(t *testing.T) {
	r := newRig(t, 1, defCfg())
	mc := r.mcs[0]
	mc.ProtocolMiss(addrmap.DirBase, sim.Desc{Kind: 1})
	mc.ProtocolMiss(addrmap.DirBase+128, sim.Desc{Kind: 1})
	r.run(1000)
	done := r.completions
	if len(done) != 2 {
		t.Fatal("protocol misses did not complete")
	}
	if done[0] != 160 {
		t.Fatalf("first protocol miss at %d, want 160", done[0])
	}
	if done[1] <= done[0] {
		t.Fatal("protocol bus must serialize transfers")
	}
	if mc.ProtoMisses != 2 {
		t.Fatal("protocol miss count wrong")
	}
}

func TestSDRAMContentionSerializes(t *testing.T) {
	r := newRig(t, 1, defCfg())
	mc := r.mcs[0]
	t1 := mc.sdramRead(0)
	t2 := mc.sdramRead(128)
	if t2 < t1+80 {
		t.Fatalf("second read (%d) must queue behind the first's transfer (%d+80)", t2, t1)
	}
	// Re-read of an in-flight line merges.
	if mc.sdramRead(0) != t1 {
		t.Fatal("duplicate read of in-flight line must merge")
	}
}

func TestDispatchCountsAndDrain(t *testing.T) {
	r := newRig(t, 2, defCfg())
	r.mcs[1].EnqueueLocal(uint8(coherence.MsgPIRead), 0)
	r.run(5000)
	if r.mcs[0].QueuedMessages() != 0 || r.mcs[1].QueuedMessages() != 0 {
		t.Fatal("queues must drain")
	}
	if r.net.InFlight() != 0 {
		t.Fatal("network must drain")
	}
	if r.mcs[0].Dispatched == 0 || r.mcs[1].Dispatched == 0 {
		t.Fatal("both nodes must have dispatched handlers")
	}
}

// TestBusyProcessorKeepsControllerLive: a controller whose queues are
// empty but whose embedded processor still runs a handler has work on
// every clock (the processor ticks inside the controller's tick), and
// names no work of its own once the handler retires.
func TestBusyProcessorKeepsControllerLive(t *testing.T) {
	r := newRig(t, 1, defCfg())
	mc := r.mcs[0]
	mc.EnqueueLocal(uint8(coherence.MsgPIRead), 0)
	for i := 0; mc.Dispatched == 0 && i < 100; i++ {
		r.eng.Step()
	}
	if mc.Dispatched != 1 || mc.QueuedMessages() != 0 || !mc.pp.Busy() {
		t.Fatalf("dispatched %d, %d queued, processor busy %v; want 1, 0, busy",
			mc.Dispatched, mc.QueuedMessages(), mc.pp.Busy())
	}
	if _, ok := mc.NextWork(r.eng.Now()); ok {
		t.Fatal("NextWork reports idle while the processor runs a handler")
	}
	for i := 0; mc.pp.Busy() && i < 1000; i++ {
		r.eng.Step()
	}
	if mc.pp.Busy() || mc.QueuedMessages() != 0 {
		t.Fatalf("processor busy %v, %d queued after 1000 cycles; want idle and empty", mc.pp.Busy(), mc.QueuedMessages())
	}
	if next, ok := mc.NextWork(r.eng.Now()); !ok || next != sim.NoWork {
		t.Fatalf("NextWork = (%d, %v) once the handler retired; want (NoWork, true)", next, ok)
	}
}

// TestDispatchOnRetiringTick: the controller ticks its processor before it
// dispatches, so a request queued behind a one-instruction handler
// dispatches on the very controller clock that retires the handler.
func TestDispatchOnRetiringTick(t *testing.T) {
	r := newRig(t, 1, defCfg()) // controller clocks at cycles 2, 4, ...
	mc := r.mcs[0]
	mc.pp.Start([]isa.Instr{{PC: addrmap.CodeBase, Op: isa.OpIntALU}})
	mc.EnqueueLocal(uint8(coherence.MsgPIRead), 0)
	r.eng.Step()
	if mc.Dispatched != 0 || !mc.pp.Busy() {
		t.Fatalf("cycle 1: dispatched %d, processor busy %v; want 0 and busy", mc.Dispatched, mc.pp.Busy())
	}
	r.eng.Step()
	if mc.pp.Retired != 1 || mc.Dispatched != 1 || mc.pp.Handlers != 2 {
		t.Fatalf("cycle 2: retired %d, dispatched %d, %d handlers started; want 1, 1, 2",
			mc.pp.Retired, mc.Dispatched, mc.pp.Handlers)
	}
}

func (n *testNode) LocalMissOutstanding(line uint64) bool { return false }

// TestUnknownEventsFailLoudly: Fire panics on a descriptor no live path
// schedules, and CheckEvent turns each such descriptor into a restore
// error instead.
func TestUnknownEventsFailLoudly(t *testing.T) {
	mc := newRig(t, 1, defCfg()).mcs[0]
	if err := CheckEvent(mc.refillDesc(0, cache.Shared, 0, false)); err != nil {
		t.Fatalf("refill descriptor rejected: %v", err)
	}
	for _, d := range []sim.Desc{
		{Kind: KMCFire + 1},
		{Kind: KMCFire, Args: [6]uint64{7}},
	} {
		if CheckEvent(d) == nil {
			t.Errorf("CheckEvent accepted %+v", d)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fire(%+v) did not panic", d)
				}
			}()
			mc.Fire(d)
		}()
	}
}
