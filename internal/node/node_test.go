package node

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/directory"
	"smtpsim/internal/memctrl"
	"smtpsim/internal/network"
	"smtpsim/internal/pipeline"
	"smtpsim/internal/ppengine"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
)

// The node package's protocol behaviour is exercised end-to-end by
// internal/machine and internal/workload; these tests pin the node-local
// glue: env delegation, PI stamping, instruction-fill timing, and the
// global-thread-ID mapping of synchronization polls.

type pollRec struct {
	gtid  int
	token uint64
}

type recordingSync struct{ polls []pollRec }

func (r *recordingSync) Poll(gtid int, token uint64) bool {
	r.polls = append(r.polls, pollRec{gtid, token})
	return true
}

// firing is one event the test engine fired.
type firing struct {
	d  sim.Desc
	at sim.Cycle
}

func buildNode(t *testing.T, id addrmap.NodeID, nodes int, smtp bool) (*Node, *sim.Engine, *recordingSync) {
	n, eng, syn, _ := buildNodeLog(t, id, nodes, smtp)
	return n, eng, syn
}

// buildNodeLog builds a node whose engine fires nothing but records every
// event that comes due, so tests can time what the node scheduled.
func buildNodeLog(t *testing.T, id addrmap.NodeID, nodes int, smtp bool) (*Node, *sim.Engine, *recordingSync, *[]firing) {
	t.Helper()
	var fired []firing
	var eng *sim.Engine
	eng = sim.NewEngine(func(d sim.Desc) { fired = append(fired, firing{d, eng.Now()}) })
	amap := addrmap.NewMap(nodes)
	var nodeSlot *Node
	net := network.New(network.Config{Nodes: nodes}, eng, func(m network.Message) {
		nodeSlot.OnNetMessage(m)
	})
	syn := &recordingSync{}
	pipeCfg := pipeline.DefaultConfig(2, smtp)
	var ppCfg *ppengine.Config
	if !smtp {
		c := ppengine.DefaultConfig(0, 10)
		ppCfg = &c
	}
	n := New(Config{
		ID: id, Nodes: nodes, AddrMap: amap, Engine: eng, Net: net, Sync: syn,
		PipeCfg: pipeCfg,
		MCCfg:   memctrl.Config{ClockDiv: 2, SDRAMAccessCyc: 160, SDRAMXferCyc: 80},
		PPCfg:   ppCfg, MCClockDiv: 2,
	})
	nodeSlot = n
	return n, eng, syn, &fired
}

func TestEnvDelegation(t *testing.T) {
	n, _, _ := buildNode(t, 1, 4, false)
	if n.NodeID() != 1 || n.Nodes() != 4 {
		t.Fatal("identity wrong")
	}
	addr := uint64(2 * addrmap.PageSize)
	if n.HomeOf(addr) != 2 {
		t.Fatal("home mapping not delegated to the address map")
	}
	e := directory.Entry{State: directory.Dirty, Owner: 3}
	n.DirStore(addr, e)
	if n.DirLoad(addr) != e {
		t.Fatal("directory round trip failed")
	}
	if !addrmap.IsDirectory(n.DirEntryAddr(addr)) {
		t.Fatal("entry address outside directory region")
	}
	if n.CacheProbe(addr) != cache.Invalid {
		t.Fatal("empty cache must probe Invalid")
	}
	if n.LocalMissOutstanding(addr) {
		t.Fatal("no miss should be outstanding")
	}
	// Invalidate/downgrade of absent lines are safe no-ops.
	if n.CacheInvalidate(addr) || n.CacheDowngrade(addr) {
		t.Fatal("absent lines are not dirty")
	}
}

func TestDownstreamStampsPIMessages(t *testing.T) {
	n, _, _ := buildNode(t, 2, 4, false)
	d := (*downstream)(n)
	if !d.EnqueueLocal(0, 128) {
		t.Fatal("enqueue failed")
	}
	if n.MC.QueuedMessages() != 1 {
		t.Fatal("message not in the local miss queue")
	}
}

func TestIMissTiming(t *testing.T) {
	n, eng, _, fired := buildNodeLog(t, 0, 2, false)
	d := (*downstream)(n)
	fill := sim.Desc{Kind: pipeline.KIFillL2, Args: [6]uint64{0, 0x1000, 0x1000}}
	d.IMiss(0x1000, fill)
	for i := 0; i < 1000 && len(*fired) == 0; i++ {
		eng.Step()
	}
	want := sim.Cycle(pipeline.DefaultConfig(2, false).IMissCyc)
	if len(*fired) != 1 || (*fired)[0].at != want || (*fired)[0].d != fill {
		t.Fatalf("I-fill fired %+v, want %+v at %d", *fired, fill, want)
	}
}

func TestSyncPollGlobalThreadMapping(t *testing.T) {
	n, _, syn := buildNode(t, 3, 4, false) // 2 app threads per node
	s := (*syncAdapter)(n)
	s.SyncPoll(0, 77)
	s.SyncPoll(1, 88)
	if len(syn.polls) != 2 {
		t.Fatal("polls not forwarded")
	}
	if syn.polls[0].gtid != 6 || syn.polls[1].gtid != 7 {
		t.Fatalf("node 3 with 2 threads maps to gtids 6,7; got %+v", syn.polls)
	}
	if syn.polls[0].token != 77 || syn.polls[1].token != 88 {
		t.Fatal("tokens not forwarded")
	}
}

func TestInterventionParking(t *testing.T) {
	n, _, _ := buildNode(t, 0, 2, false)
	// No outstanding miss: interventions go straight to the controller.
	iv := network.Message{
		Src: 1, Dst: 0, VC: network.VCIntervention,
		Type: 8 /* INVAL */, Addr: 256,
	}
	n.OnNetMessage(iv)
	if n.ParkedInterventions() != 0 || n.MC.QueuedMessages() != 1 {
		t.Fatal("intervention without an outstanding miss must not park")
	}
	if n.DeferredInterventions != 0 {
		t.Fatal("deferral counter must stay zero")
	}
}

func TestSMTpNodeHasNoPP(t *testing.T) {
	n, _, _ := buildNode(t, 0, 2, true)
	if n.PP != nil {
		t.Fatal("SMTp node must not build a protocol processor")
	}
	n2, _, _ := buildNode(t, 0, 2, false)
	if n2.PP == nil {
		t.Fatal("non-SMTp node needs its protocol processor")
	}
}

// TestLoadStateRejectsCorruptParkedCount: a parked-message count that is
// negative or cannot fit in the stream is a decode error, never a panic or
// an allocation sized from it.
func TestLoadStateRejectsCorruptParkedCount(t *testing.T) {
	for _, cnt := range []int{-1, 1 << 40, 1 << 60} {
		e := snapshot.NewEncoder()
		e.Mark("node")
		e.Mark("mem")
		e.Int(0)     // no slabs
		e.U64(0)     // directory loads
		e.U64(0)     // directory stores
		e.Int(1)     // one parked line
		e.U64(0x100) // its address
		e.Int(cnt)   // its message count
		d, err := snapshot.NewDecoder(e.Finish())
		if err != nil {
			t.Fatal(err)
		}
		n, _, _ := buildNode(t, 0, 2, true)
		n.LoadState(d)
		if d.Err() == nil {
			t.Fatalf("LoadState accepted %d parked messages", cnt)
		}
	}
}
