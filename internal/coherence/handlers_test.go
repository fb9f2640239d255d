package coherence

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/directory"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
)

// mockEnv implements Env over plain maps for handler unit tests.
type mockEnv struct {
	id    addrmap.NodeID
	nodes int
	amap  *addrmap.Map
	dir   *directory.Directory
	l2    map[uint64]cache.State

	invals     []uint64
	downgrades []uint64
}

func newMockEnv(id addrmap.NodeID, nodes int) *mockEnv {
	return &mockEnv{
		id:    id,
		nodes: nodes,
		amap:  addrmap.NewMap(nodes),
		dir:   directory.New(addrmap.NewMemory(), nodes),
		l2:    map[uint64]cache.State{},
	}
}

func (m *mockEnv) NodeID() addrmap.NodeID               { return m.id }
func (m *mockEnv) Nodes() int                           { return m.nodes }
func (m *mockEnv) HomeOf(a uint64) addrmap.NodeID       { return m.amap.HomeOf(a) }
func (m *mockEnv) DirLoad(a uint64) directory.Entry     { return m.dir.Load(a) }
func (m *mockEnv) DirStore(a uint64, e directory.Entry) { m.dir.Store(a, e) }
func (m *mockEnv) DirEntryAddr(a uint64) uint64         { return m.dir.EntryAddr(a) }
func (m *mockEnv) CacheProbe(l uint64) cache.State      { return m.l2[l] }
func (m *mockEnv) CacheInvalidate(l uint64) bool {
	m.invals = append(m.invals, l)
	was := m.l2[l]
	delete(m.l2, l)
	return was == cache.Modified
}
func (m *mockEnv) CacheDowngrade(l uint64) bool {
	m.downgrades = append(m.downgrades, l)
	was := m.l2[l]
	if was.Writable() {
		m.l2[l] = cache.Shared
	}
	return was == cache.Modified
}

// testFx receives the effects of every trace the unit tests run; the tests
// read them back by handle without firing them.
var testFx = NewEffectArena()

// handle runs the handler for m against env with effects issued into testFx.
func handle(env Env, m *network.Message) []isa.Instr { return Handle(env, testFx, m) }

// effectsOf extracts the effects a trace's instructions name.
func effectsOf(tr []isa.Instr) []Effect {
	var out []Effect
	for i := range tr {
		if tr[i].Effect != 0 {
			out = append(out, *testFx.Get(tr[i].Effect))
		}
	}
	return out
}

// sent is a send effect as the tests inspect it.
type sent struct {
	Msg         *network.Message
	NeedsMemory bool
}

func sendsOf(tr []isa.Instr) []sent {
	var out []sent
	for _, e := range effectsOf(tr) {
		if e.Kind == EffSend {
			m := e.Msg
			out = append(out, sent{Msg: &m, NeedsMemory: e.NeedsMemory})
		}
	}
	return out
}

// pageAddr returns an address on a page homed at the given node under
// round-robin placement with 4 nodes.
func pageAddr(home int) uint64 { return uint64(home) * addrmap.PageSize }

func pi(t MsgType, addr uint64, self addrmap.NodeID) *network.Message {
	return &network.Message{Src: self, Dst: self, Type: uint8(t), Addr: addr}
}

func netMsg(t MsgType, addr uint64, src, dst, req addrmap.NodeID, aux uint64) *network.Message {
	return &network.Message{Src: src, Dst: dst, Requester: req, Type: uint8(t), Addr: addr, Aux: aux, VC: t.VC()}
}

func TestTraceShape(t *testing.T) {
	env := newMockEnv(0, 4)
	tr := handle(env, pi(MsgPIRead, pageAddr(0), 0))
	if len(tr) < 4 {
		t.Fatalf("trace too short: %d", len(tr))
	}
	if tr[0].Flags&isa.FlagHandlerStart == 0 {
		t.Fatal("first instruction must carry FlagHandlerStart")
	}
	last, prev := tr[len(tr)-1], tr[len(tr)-2]
	if prev.Op != isa.OpSwitch || last.Op != isa.OpLdctxt {
		t.Fatalf("handler must end with switch+ldctxt, got %v,%v", prev.Op, last.Op)
	}
	if last.Flags&isa.FlagLastInHandler == 0 {
		t.Fatal("ldctxt must carry FlagLastInHandler")
	}
	base := ProgramFor(MsgPIRead).Base
	for _, in := range tr {
		if in.PC < base || in.PC >= base+uint64(ProgramFor(MsgPIRead).StaticLen())*4 {
			t.Fatalf("PC %#x outside program bounds", in.PC)
		}
	}
}

func TestTracePCsStableAcrossExecutions(t *testing.T) {
	env := newMockEnv(0, 4)
	tr1 := handle(env, pi(MsgPIRead, pageAddr(0), 0))
	env2 := newMockEnv(0, 4)
	tr2 := handle(env2, pi(MsgPIRead, pageAddr(0), 0))
	if len(tr1) != len(tr2) {
		t.Fatalf("same-state executions differ in length: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i].PC != tr2[i].PC || tr1[i].Op != tr2[i].Op {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, tr1[i], tr2[i])
		}
	}
}

func TestLocalReadUnowned(t *testing.T) {
	env := newMockEnv(0, 4)
	addr := pageAddr(0)
	tr := handle(env, pi(MsgPIRead, addr, 0))
	effs := effectsOf(tr)
	if len(effs) != 1 {
		t.Fatalf("want 1 effect, got %d", len(effs))
	}
	r := effs[0]
	if r.Kind != EffRefill {
		t.Fatalf("want a refill effect, got %+v", r)
	}
	if r.St != cache.Exclusive || r.Acks != 0 || !r.NeedsMemory {
		t.Fatalf("eager-exclusive local refill wrong: %+v", r)
	}
	e := env.dir.Load(addr)
	if e.State != directory.Dirty || e.Owner != 0 {
		t.Fatalf("directory after local read: %+v, want Dirty owner 0", e)
	}
	// Directory loads/stores must appear in the trace with the entry address.
	var sawDirLoad, sawDirStore bool
	for _, in := range tr {
		if in.Op == isa.OpLoad && in.Addr == env.dir.EntryAddr(addr) {
			sawDirLoad = true
		}
		if in.Op == isa.OpStore && in.Addr == env.dir.EntryAddr(addr) {
			sawDirStore = true
		}
	}
	if !sawDirLoad || !sawDirStore {
		t.Fatal("trace must contain directory entry load and store")
	}
}

func TestRemoteReadSendsGET(t *testing.T) {
	env := newMockEnv(0, 4)
	addr := pageAddr(2)
	tr := handle(env, pi(MsgPIRead, addr, 0))
	sends := sendsOf(tr)
	if len(sends) != 1 {
		t.Fatalf("want 1 send, got %d", len(sends))
	}
	m := sends[0].Msg
	if MsgType(m.Type) != MsgGET || m.Dst != 2 || m.Requester != 0 || m.VC != network.VCRequest {
		t.Fatalf("bad GET: %+v", m)
	}
	if sends[0].NeedsMemory {
		t.Fatal("forwarded GET does not carry data")
	}
}

func TestHomeGETShared(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.Shared, Sharers: 0b1000})
	tr := handle(env, netMsg(MsgGET, addr, 1, 2, 1, 0))
	sends := sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgPUT || sends[0].Msg.Dst != 1 {
		t.Fatalf("want PUT to node 1, got %+v", sends)
	}
	if !sends[0].NeedsMemory {
		t.Fatal("home data reply must wait for SDRAM")
	}
	e := env.dir.Load(addr)
	if e.State != directory.Shared || !e.HasSharer(1) || !e.HasSharer(3) {
		t.Fatalf("directory after GET: %+v", e)
	}
}

func TestHomeGETDirtyForwards(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 3})
	tr := handle(env, netMsg(MsgGET, addr, 0, 2, 0, 0))
	sends := sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgISHARED || sends[0].Msg.Dst != 3 {
		t.Fatalf("want ISHARED to owner 3, got %+v", sends)
	}
	if sends[0].Msg.Requester != 0 {
		t.Fatal("intervention must carry the original requester")
	}
	e := env.dir.Load(addr)
	if e.State != directory.BusyShared || e.Owner != 3 || e.Pending != 0 {
		t.Fatalf("directory must be BusyShared(owner 3, pending 0): %+v", e)
	}
}

func TestHomeGETBusyNaks(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.BusyExcl, Owner: 3, Pending: 1})
	tr := handle(env, netMsg(MsgGET, addr, 0, 2, 0, 0))
	sends := sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgNAK || sends[0].Msg.Dst != 0 {
		t.Fatalf("busy line must NAK, got %+v", sends)
	}
	e := env.dir.Load(addr)
	if e.State != directory.BusyExcl {
		t.Fatal("NAK must not change the directory")
	}
}

func TestHomeGETXSharedInvalidates(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	// Sharers: 0, 1, 3 and the requester is 1 -> invals to 0 and 3.
	env.dir.Store(addr, directory.Entry{State: directory.Shared, Sharers: 0b1011})
	tr := handle(env, netMsg(MsgGETX, addr, 1, 2, 1, 0))
	sends := sendsOf(tr)
	var putx *network.Message
	var invals []addrmap.NodeID
	for _, s := range sends {
		switch MsgType(s.Msg.Type) {
		case MsgPUTX:
			putx = s.Msg
		case MsgINVAL:
			invals = append(invals, s.Msg.Dst)
		}
	}
	if putx == nil || putx.Dst != 1 || putx.Aux != 2 {
		t.Fatalf("want eager PUTX with 2 acks, got %+v", putx)
	}
	if len(invals) != 2 || invals[0] != 0 || invals[1] != 3 {
		t.Fatalf("want invals to 0 and 3, got %v", invals)
	}
	e := env.dir.Load(addr)
	if e.State != directory.Dirty || e.Owner != 1 {
		t.Fatalf("directory after GETX: %+v", e)
	}
}

func TestHomeGETXSharedLocalCopyInvalidatedInline(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.l2[addr] = cache.Shared
	env.dir.Store(addr, directory.Entry{State: directory.Shared, Sharers: 0b0110}) // nodes 1,2
	tr := handle(env, netMsg(MsgGETX, addr, 1, 2, 1, 0))
	sends := sendsOf(tr)
	for _, s := range sends {
		if MsgType(s.Msg.Type) == MsgINVAL {
			t.Fatalf("home's own copy must be invalidated inline, not messaged: %+v", s.Msg)
		}
	}
	if len(env.invals) != 1 || env.invals[0] != addr {
		t.Fatal("home L2 copy was not invalidated")
	}
	var putx *network.Message
	for _, s := range sends {
		if MsgType(s.Msg.Type) == MsgPUTX {
			putx = s.Msg
		}
	}
	if putx == nil || putx.Aux != 0 {
		t.Fatalf("no network invals -> 0 acks, got %+v", putx)
	}
}

func TestHomeUpgradeGrantAndStaleNak(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.Shared, Sharers: 0b1010}) // 1 and 3
	tr := handle(env, netMsg(MsgUPGRADE, addr, 1, 2, 1, 0))
	sends := sendsOf(tr)
	var upg *network.Message
	var invals int
	for _, s := range sends {
		switch MsgType(s.Msg.Type) {
		case MsgUPGACK:
			upg = s.Msg
		case MsgINVAL:
			invals++
		}
	}
	if upg == nil || upg.Aux != 1 || invals != 1 {
		t.Fatalf("upgrade grant wrong: upg=%+v invals=%d", upg, invals)
	}
	if e := env.dir.Load(addr); e.State != directory.Dirty || e.Owner != 1 {
		t.Fatalf("directory after upgrade: %+v", e)
	}

	// A second upgrade from node 3 (no longer a sharer) must NAK.
	tr = handle(env, netMsg(MsgUPGRADE, addr, 3, 2, 3, 0))
	sends = sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgNAK {
		t.Fatalf("stale upgrade must NAK, got %+v", sends)
	}
}

func TestWritebackNormal(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 3})
	tr := handle(env, netMsg(MsgWB, addr, 3, 2, 3, 0))
	sends := sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgWBACK || sends[0].Msg.Dst != 3 {
		t.Fatalf("want WBACK to 3, got %+v", sends)
	}
	if e := env.dir.Load(addr); e.State != directory.Unowned {
		t.Fatalf("directory after WB: %+v", e)
	}
}

func TestWritebackRaceBusyShared(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.BusyShared, Owner: 3, Pending: 1})
	tr := handle(env, netMsg(MsgWB, addr, 3, 2, 3, 0))
	sends := sendsOf(tr)
	var put, wback *network.Message
	for _, s := range sends {
		switch MsgType(s.Msg.Type) {
		case MsgPUT:
			put = s.Msg
		case MsgWBACK:
			wback = s.Msg
		}
	}
	if put == nil || put.Dst != 1 {
		t.Fatalf("race must complete pending read with PUT to 1: %+v", sends)
	}
	if wback == nil || wback.Dst != 3 {
		t.Fatal("race must still ack the writeback")
	}
	if e := env.dir.Load(addr); e.State != directory.Shared || !e.HasSharer(1) || e.HasSharer(3) {
		t.Fatalf("directory after race: %+v", e)
	}
}

func TestWritebackRaceBusyExcl(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.BusyExcl, Owner: 3, Pending: 0})
	tr := handle(env, netMsg(MsgWB, addr, 3, 2, 3, 0))
	var putx *network.Message
	for _, s := range sendsOf(tr) {
		if MsgType(s.Msg.Type) == MsgPUTX {
			putx = s.Msg
		}
	}
	if putx == nil || putx.Dst != 0 || putx.Aux != 0 {
		t.Fatalf("race must complete pending write with PUTX to 0: %+v", putx)
	}
	if e := env.dir.Load(addr); e.State != directory.Dirty || e.Owner != 0 {
		t.Fatalf("directory after race: %+v", e)
	}
}

func TestStaleWritebackJustAcked(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 1})
	tr := handle(env, netMsg(MsgWB, addr, 3, 2, 3, 0)) // 3 is not the owner
	sends := sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgWBACK {
		t.Fatalf("stale WB must only be acked: %+v", sends)
	}
	if e := env.dir.Load(addr); e.State != directory.Dirty || e.Owner != 1 {
		t.Fatal("stale WB must not change the directory")
	}
}

func TestInterventionSharedAtOwner(t *testing.T) {
	env := newMockEnv(3, 4)
	addr := pageAddr(2)
	env.l2[addr] = cache.Modified
	tr := handle(env, netMsg(MsgISHARED, addr, 2, 3, 0, 0))
	sends := sendsOf(tr)
	var put, shwb *network.Message
	for _, s := range sends {
		switch MsgType(s.Msg.Type) {
		case MsgPUT:
			put = s.Msg
		case MsgSHWB:
			shwb = s.Msg
		}
	}
	if put == nil || put.Dst != 0 || put.DataBytes != 128 {
		t.Fatalf("owner must forward data to requester: %+v", put)
	}
	if shwb == nil || shwb.Dst != 2 {
		t.Fatalf("owner must send SHWB to home: %+v", shwb)
	}
	if env.l2[addr] != cache.Shared {
		t.Fatal("owner copy must be downgraded")
	}
}

func TestInterventionExclAtOwner(t *testing.T) {
	env := newMockEnv(3, 4)
	addr := pageAddr(2)
	env.l2[addr] = cache.Modified
	tr := handle(env, netMsg(MsgIEXCL, addr, 2, 3, 1, 0))
	var putx, xfer *network.Message
	for _, s := range sendsOf(tr) {
		switch MsgType(s.Msg.Type) {
		case MsgPUTX:
			putx = s.Msg
		case MsgXFER:
			xfer = s.Msg
		}
	}
	if putx == nil || putx.Dst != 1 {
		t.Fatalf("owner must forward exclusive data to requester: %+v", putx)
	}
	if xfer == nil || xfer.Dst != 2 {
		t.Fatalf("owner must notify home: %+v", xfer)
	}
	if _, present := env.l2[addr]; present {
		t.Fatal("owner copy must be invalidated")
	}
}

func TestInterventionMissSendsIVNAK(t *testing.T) {
	env := newMockEnv(3, 4)
	addr := pageAddr(2)
	// Line not in cache: writeback race.
	tr := handle(env, netMsg(MsgISHARED, addr, 2, 3, 0, 0))
	sends := sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgIVNAK || sends[0].Msg.Dst != 2 {
		t.Fatalf("absent line must IVNAK home: %+v", sends)
	}
}

func TestSHWBCompletesBusy(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.BusyShared, Owner: 3, Pending: 0})
	handle(env, netMsg(MsgSHWB, addr, 3, 2, 0, 0))
	e := env.dir.Load(addr)
	if e.State != directory.Shared || !e.HasSharer(0) || !e.HasSharer(3) {
		t.Fatalf("SHWB must leave Shared{0,3}: %+v", e)
	}
	// Stale SHWB (already resolved) is dropped.
	env.dir.Store(addr, directory.Entry{State: directory.Unowned})
	handle(env, netMsg(MsgSHWB, addr, 3, 2, 0, 0))
	if e := env.dir.Load(addr); e.State != directory.Unowned {
		t.Fatal("stale SHWB must be dropped")
	}
}

func TestXFERCompletesBusy(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.BusyExcl, Owner: 3, Pending: 1})
	handle(env, netMsg(MsgXFER, addr, 3, 2, 1, 0))
	e := env.dir.Load(addr)
	if e.State != directory.Dirty || e.Owner != 1 {
		t.Fatalf("XFER must leave Dirty(1): %+v", e)
	}
}

func TestIVNAKCompletesFromMemory(t *testing.T) {
	env := newMockEnv(2, 4)
	addr := pageAddr(2)
	env.dir.Store(addr, directory.Entry{State: directory.BusyShared, Owner: 3, Pending: 1})
	tr := handle(env, netMsg(MsgIVNAK, addr, 3, 2, 1, 0))
	sends := sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgPUT || sends[0].Msg.Dst != 1 {
		t.Fatalf("IVNAK must complete pending read: %+v", sends)
	}
	if !sends[0].NeedsMemory {
		t.Fatal("IVNAK completion reads memory")
	}
	if e := env.dir.Load(addr); e.State != directory.Shared || !e.HasSharer(1) {
		t.Fatalf("directory after IVNAK: %+v", e)
	}
}

func TestReplyHandlersProduceLocalEffects(t *testing.T) {
	env := newMockEnv(1, 4)
	addr := pageAddr(2)
	cases := []struct {
		t   MsgType
		aux uint64
		chk func(Effect) bool
	}{
		{MsgPUT, 0, func(r Effect) bool {
			return r.Kind == EffRefill && r.St == cache.Shared && !r.Upgrade
		}},
		{MsgPUTX, 3, func(r Effect) bool {
			return r.Kind == EffRefill && r.St == cache.Exclusive && r.Acks == 3
		}},
		{MsgUPGACK, 2, func(r Effect) bool {
			return r.Kind == EffRefill && r.Upgrade && r.Acks == 2
		}},
		{MsgNAK, 0, func(e Effect) bool { return e.Kind == EffNak }},
		{MsgIACK, 0, func(e Effect) bool { return e.Kind == EffIAck }},
		{MsgWBACK, 0, func(e Effect) bool { return e.Kind == EffWBAck }},
	}
	for _, c := range cases {
		tr := handle(env, netMsg(c.t, addr, 2, 1, 1, c.aux))
		effs := effectsOf(tr)
		if len(effs) != 1 || !c.chk(effs[0]) {
			t.Fatalf("%v: bad effect %+v", c.t, effs)
		}
	}
}

func TestShortHandlersAreShort(t *testing.T) {
	// The paper notes critical handlers are only ~6 instructions long; the
	// reply handlers must be in that class.
	for _, mt := range []MsgType{MsgPUT, MsgPUTX, MsgNAK, MsgIACK, MsgWBACK, MsgUPGACK} {
		if n := ProgramFor(mt).StaticLen(); n > 6 {
			t.Fatalf("%v handler is %d instructions; want <= 6", mt, n)
		}
	}
}

func TestAllHandlersRegistered(t *testing.T) {
	for mt := MsgType(0); mt < NumMsgTypes; mt++ {
		p := ProgramFor(mt)
		if p == nil || len(p.Code) < 2 {
			t.Fatalf("handler for %v missing or too short", mt)
		}
		// Every program ends with switch+ldctxt.
		n := len(p.Code)
		if p.Code[n-2].Op != isa.OpSwitch || p.Code[n-1].Op != isa.OpLdctxt {
			t.Fatalf("%v does not end with switch+ldctxt", mt)
		}
		// Distinct, non-overlapping code regions.
		if p.Base != progBase(mt) {
			t.Fatalf("%v at wrong base", mt)
		}
		if uint64(len(p.Code))*4 > 1024 {
			t.Fatalf("%v overflows its code slot", mt)
		}
	}
}

func TestBranchTargetsResolved(t *testing.T) {
	for mt := MsgType(0); mt < NumMsgTypes; mt++ {
		p := ProgramFor(mt)
		for i, pi := range p.Code {
			if pi.Op == isa.OpBranch {
				if pi.Tgt < 0 || pi.Tgt > len(p.Code) {
					t.Fatalf("%v slot %d: branch target %d out of range", mt, i, pi.Tgt)
				}
			}
		}
	}
}

// TestTwoNodeReadWriteWalk chains handler executions across two mock nodes
// to validate the protocol end to end at the semantic level: node 1 reads a
// line homed at node 0, then node 0 writes it, invalidating node 1.
func TestTwoNodeReadWriteWalk(t *testing.T) {
	home := newMockEnv(0, 2)
	reader := newMockEnv(1, 2)
	addr := uint64(0) // homed at node 0

	// Node 1 read miss -> GET to home.
	tr := handle(reader, pi(MsgPIRead, addr, 1))
	sends := sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgGET {
		t.Fatalf("expected GET, got %+v", sends)
	}
	// Home handles GET (unowned) -> eager-exclusive PUTX back to node 1.
	tr = handle(home, sends[0].Msg)
	sends = sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgPUTX {
		t.Fatalf("expected PUTX, got %+v", sends)
	}
	// Reader receives PUTX -> refill Exclusive; model the fill.
	tr = handle(reader, sends[0].Msg)
	r := effectsOf(tr)[0]
	reader.l2[r.Line] = r.St
	if home.dir.Load(addr).State != directory.Dirty {
		t.Fatal("home must track node 1 as owner")
	}

	// Reader dirties it (would be a cache-internal state change).
	reader.l2[addr] = cache.Modified

	// Now home itself wants to write: local PIWrite, dirty remote owner.
	tr = handle(home, pi(MsgPIWrite, addr, 0))
	sends = sendsOf(tr)
	if len(sends) != 1 || MsgType(sends[0].Msg.Type) != MsgIEXCL || sends[0].Msg.Dst != 1 {
		t.Fatalf("expected IEXCL to node 1, got %+v", sends)
	}
	// Owner handles the intervention: PUTX to requester (home), XFER to home.
	tr = handle(reader, sends[0].Msg)
	var putxMsg, xferMsg *network.Message
	for _, s := range sendsOf(tr) {
		switch MsgType(s.Msg.Type) {
		case MsgPUTX:
			putxMsg = s.Msg
		case MsgXFER:
			xferMsg = s.Msg
		}
	}
	if putxMsg == nil || putxMsg.Dst != 0 || xferMsg == nil {
		t.Fatalf("intervention results wrong: putx=%+v xfer=%+v", putxMsg, xferMsg)
	}
	if _, present := reader.l2[addr]; present {
		t.Fatal("old owner must lose the line")
	}
	// Home receives XFER -> Dirty(owner 0).
	handle(home, xferMsg)
	if e := home.dir.Load(addr); e.State != directory.Dirty || e.Owner != 0 {
		t.Fatalf("final directory: %+v, want Dirty(0)", e)
	}
	// Home receives the forwarded PUTX as a local refill.
	tr = handle(home, putxMsg)
	if effectsOf(tr)[0].Kind != EffRefill {
		t.Fatal("home must refill from forwarded PUTX")
	}
}

func (m *mockEnv) LocalMissOutstanding(line uint64) bool { return false }
