package coherence

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/directory"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
)

func TestTableDefaultsMatchGlobal(t *testing.T) {
	tab := DefaultTable()
	for mt := MsgType(0); mt < NumMsgTypes; mt++ {
		if tab.Program(mt) != ProgramFor(mt) {
			t.Fatalf("%v: default table diverges from the global handlers", mt)
		}
	}
}

func TestTableCloneIsolation(t *testing.T) {
	a := DefaultTable()
	b := a.Clone()
	b.Replace(MsgGET, &Program{Name: "alt", Base: 1 << 41, Code: ProgramFor(MsgGET).Code})
	if a.Program(MsgGET).Name == "alt" {
		t.Fatal("Replace on a clone leaked into the original")
	}
}

func TestReviveLogsFirstWritePerEpoch(t *testing.T) {
	l := NewReviveLog()
	tab := NewReviveTable(l)
	env := newMockEnv(2, 4)
	addr := pageAddr(2)

	// First GETX on an unowned line: logged.
	tr := tab.Handle(env, testFx, netMsg(MsgGETX, addr, 1, 2, 1, 0))
	if l.Entries != 1 {
		t.Fatalf("entries=%d, want 1", l.Entries)
	}
	// The trace must contain the extra log work: metadata load + stores to
	// the log region.
	logStores := 0
	for i := range tr {
		if tr[i].Op == isa.OpStore && tr[i].Addr >= logMetaBase {
			logStores++
		}
	}
	if logStores < 3 {
		t.Fatalf("logging path must write the log record and metadata; saw %d stores", logStores)
	}

	// Writeback of the same line in the same epoch: already covered.
	env.dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 1})
	tab.Handle(env, testFx, netMsg(MsgWB, addr, 1, 2, 1, 0))
	if l.Entries != 1 {
		t.Fatalf("same-epoch writeback must not re-log; entries=%d", l.Entries)
	}

	// After a checkpoint the line is loggable again.
	l.Checkpoint()
	env.dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 1})
	tab.Handle(env, testFx, netMsg(MsgWB, addr, 1, 2, 1, 0))
	if l.Entries != 2 {
		t.Fatalf("post-checkpoint writeback must log; entries=%d", l.Entries)
	}
}

func TestReviveSkipsReadsAndRemoteNodes(t *testing.T) {
	l := NewReviveLog()
	tab := NewReviveTable(l)
	env := newMockEnv(2, 4)
	addr := pageAddr(2)

	// Reads never log.
	tab.Handle(env, testFx, netMsg(MsgGET, addr, 1, 2, 1, 0))
	if l.Entries != 0 {
		t.Fatal("GET must not log")
	}
	// A PIWrite at a non-home node must not log (it only forwards).
	remoteEnv := newMockEnv(0, 4)
	tab.Handle(remoteEnv, testFx, pi(MsgPIWrite, addr, 0))
	if l.Entries != 0 {
		t.Fatal("non-home write must not log")
	}
	// Dirty-state GETX (ownership transfer) does not log: memory is stale.
	env.dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 3})
	tab.Handle(env, testFx, netMsg(MsgGETX, addr, 1, 2, 1, 0))
	if l.Entries != 0 {
		t.Fatal("dirty-transfer must not log (memory already stale)")
	}
}

func TestReviveSemanticsUnchanged(t *testing.T) {
	// The logging table must make the same protocol decisions as the base
	// table: same directory transitions, same messages.
	l := NewReviveLog()
	tab := NewReviveTable(l)
	base := newMockEnv(2, 4)
	ext := newMockEnv(2, 4)
	msgs := []*network.Message{
		netMsg(MsgGETX, pageAddr(2), 1, 2, 1, 0),
		netMsg(MsgGET, pageAddr(2)+128, 0, 2, 0, 0),
		netMsg(MsgUPGRADE, pageAddr(2)+256, 3, 2, 3, 0),
	}
	for _, m := range msgs {
		trBase := handle(base, cloneMsg(m))
		trExt := tab.Handle(ext, testFx, cloneMsg(m))
		sb, se := sendsOf(trBase), sendsOf(trExt)
		if len(sb) != len(se) {
			t.Fatalf("%v: base sends %d, revive sends %d", MsgType(m.Type), len(sb), len(se))
		}
		for i := range sb {
			if sb[i].Msg.Type != se[i].Msg.Type || sb[i].Msg.Dst != se[i].Msg.Dst {
				t.Fatalf("%v: send %d differs", MsgType(m.Type), i)
			}
		}
		if base.dir.Load(m.Addr) != ext.dir.Load(m.Addr) {
			t.Fatalf("%v: directory transitions diverge", MsgType(m.Type))
		}
	}
}

func cloneMsg(m *network.Message) *network.Message {
	c := *m
	return &c
}

func TestReviveProgramShape(t *testing.T) {
	l := NewReviveLog()
	tab := NewReviveTable(l)
	for _, mt := range []MsgType{MsgGETX, MsgUPGRADE, MsgPIWrite, MsgPIUpgrade, MsgWB, MsgPIWriteback} {
		p := tab.Program(mt)
		if p == ProgramFor(mt) {
			t.Fatalf("%v: not replaced", mt)
		}
		if p.Base == ProgramFor(mt).Base {
			t.Fatalf("%v: variant must live at its own code address", mt)
		}
		// Branch targets must stay in range after the shift.
		for i, pi := range p.Code {
			if pi.Op == isa.OpBranch && (pi.Tgt < 0 || pi.Tgt > len(p.Code)) {
				t.Fatalf("%v slot %d: target %d out of range", mt, i, pi.Tgt)
			}
		}
		n := len(p.Code)
		if p.Code[n-2].Op != isa.OpSwitch || p.Code[n-1].Op != isa.OpLdctxt {
			t.Fatalf("%v: variant lost its switch/ldctxt tail", mt)
		}
	}
	// Untouched handlers are shared with the base table.
	if tab.Program(MsgGET) != ProgramFor(MsgGET) {
		t.Fatal("read handlers must be untouched")
	}
	_ = addrmap.CoherenceLineSize
}
