package pipeline

import (
	"testing"

	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
)

// saveTestInstr and loadTestInstr are a minimal instruction codec for
// SaveState/LoadState round trips in tests (the machine passes its memory
// controller's effect-aware codec).
func saveTestInstr(e *snapshot.Encoder, in *isa.Instr) {
	e.U64(in.PC)
	e.U8(uint8(in.Op))
	e.U8(uint8(in.Flags))
}

func loadTestInstr(d *snapshot.Decoder) isa.Instr {
	return isa.Instr{PC: d.U64(), Op: isa.Op(d.U8()), Flags: isa.Flags(d.U8())}
}

// pendingEvent returns the first pending event of the given kind.
func pendingEvent(t *testing.T, eng *sim.Engine, kind uint8) sim.Desc {
	t.Helper()
	eng.FlushDeferred()
	st, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range st.Events {
		if ev.Desc.Kind == kind {
			return ev.Desc
		}
	}
	t.Fatalf("no pending event of kind %d among %+v", kind, st.Events)
	return sim.Desc{}
}

// TestProtoRetryFiresOnItsUop: a protocol load that finds every MSHR entry
// busy retries through a KProtoRetry event that names its uop by sequence
// number. The descriptor resolves against the live core and against a core
// restored from its saved state, and once an entry frees the retry issues
// the miss and the load completes.
func TestProtoRetryFiresOnItsUop(t *testing.T) {
	r := newRig(1, true)
	r.p.SetSource(0, &sliceSource{ins: nil})
	var held []*cache.MSHREntry
	for i := uint64(0); r.p.mshr.CanAlloc(cache.ClassProtocol); i++ {
		held = append(held, r.p.mshr.Alloc(0x100000+i*128, false, cache.ClassProtocol))
	}
	dirAddr := uint64(1<<40) + 0x100
	tr := []isa.Instr{
		{Op: isa.OpLoad, Dst: 3, Addr: dirAddr, Size: 8},
		{Op: isa.OpSwitch, Dst: 1, Addr: 1 << 42, Size: 8},
		{Op: isa.OpLdctxt, Dst: 2, Addr: (1 << 42) + 8, Size: 8, Flags: isa.FlagLastInHandler},
	}
	for i := range tr {
		tr[i].PC = (1 << 41) + uint64(i)*4
	}
	r.p.Backend().Start(tr)
	for i := 0; i < 2000 && r.p.ProtoRetrySpins == 0; i++ {
		r.step()
	}
	if r.p.ProtoRetrySpins == 0 {
		t.Fatal("the protocol load never retried")
	}
	retry := pendingEvent(t, r.eng, KProtoRetry)
	if retry.Args[0]&protoHasUop == 0 {
		t.Fatalf("retry descriptor names no uop: %+v", retry)
	}
	if err := r.p.CheckEvent(retry); err != nil {
		t.Fatalf("live core: %v", err)
	}
	stale := retry
	stale.Args[1] = ^uint64(0)
	if r.p.CheckEvent(stale) == nil {
		t.Fatal("a retry naming no live uop passed the check")
	}

	e := snapshot.NewEncoder()
	r.p.SaveState(e, saveTestInstr)
	d, err := snapshot.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	restored := newRig(1, true).p
	restored.LoadState(d, loadTestInstr)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckEvent(retry); err != nil {
		t.Fatalf("restored core: %v", err)
	}

	for _, m := range held {
		r.p.mshr.Free(m)
	}
	for i := 0; i < 2000 && r.p.Retired[r.p.ProtoTID()] == 0; i++ {
		r.step()
	}
	if r.p.l2.Probe(dirAddr) == nil && r.p.l2byp.Probe(dirAddr) == nil {
		t.Fatal("the retried miss never filled its line")
	}
	if r.p.Retired[r.p.ProtoTID()] == 0 {
		t.Fatal("the retried load never completed")
	}
}

// TestUnknownEventsFailLoudly: Fire panics on a descriptor no live path
// schedules, and CheckEvent turns each such descriptor into a restore
// error instead.
func TestUnknownEventsFailLoudly(t *testing.T) {
	smtp, base := newRig(1, true).p, newRig(1, false).p
	unknownUop := sim.Desc{Kind: KProtoRetry, Args: [6]uint64{protoHasUop, 12345}}
	for _, tc := range []struct {
		name string
		p    *Pipeline
		d    sim.Desc
	}{
		{"kind 0", smtp, sim.Desc{}},
		{"unclaimed kind", smtp, sim.Desc{Kind: 31}},
		{"fill for a missing context", smtp, sim.Desc{Kind: KIFill, Args: [6]uint64{9}}},
		{"retry of an unknown uop", smtp, unknownUop},
		{"retry on a core without a protocol thread", base, unknownUop},
	} {
		if tc.p.CheckEvent(tc.d) == nil {
			t.Errorf("%s: CheckEvent accepted %+v", tc.name, tc.d)
		}
	}
	for _, d := range []sim.Desc{{}, unknownUop} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fire(%+v) did not panic", d)
				}
			}()
			smtp.Fire(d)
		}()
	}
}

// TestCheckEventRejectsProtoDoneWithoutMiss: a protocol-miss completion
// re-finds its MSHR entry by line when it fires, so a snapshot carrying one
// for a line with no protocol-class miss outstanding must fail the restore
// instead of dereferencing a missing entry.
func TestCheckEventRejectsProtoDoneWithoutMiss(t *testing.T) {
	r := newRig(1, true)
	const line = 0x12340
	done := r.p.protoDoneDesc(line, line)
	if r.p.CheckEvent(done) == nil {
		t.Fatal("a completion with no miss outstanding passed the check")
	}
	app := r.p.mshr.Alloc(line, false, cache.ClassApp)
	if r.p.CheckEvent(done) == nil {
		t.Fatal("a completion for an application miss passed the check")
	}
	r.p.mshr.Free(app)
	r.p.mshr.Alloc(line, false, cache.ClassProtocol)
	if err := r.p.CheckEvent(done); err != nil {
		t.Fatalf("outstanding protocol miss: %v", err)
	}
}

// TestCheckEventRejectsNonPIRetry: a processor-interface retry re-enqueues
// its message type into the local miss interface, which takes only the
// four PI request types.
func TestCheckEventRejectsNonPIRetry(t *testing.T) {
	p := newRig(1, false).p
	for _, mt := range []coherence.MsgType{coherence.MsgPIRead, coherence.MsgPIWrite, coherence.MsgPIUpgrade, coherence.MsgPIWriteback} {
		if err := p.CheckEvent(p.sendPIDesc(mt, 0x4000)); err != nil {
			t.Errorf("%v: %v", mt, err)
		}
	}
	bad := []sim.Desc{
		p.sendPIDesc(coherence.MsgGET, 0x4000),
		p.sendPIDesc(coherence.MsgPUTX, 0x4000),
		p.desc2(KSendPIRetry, 0x100|uint64(coherence.MsgPIRead), 0x4000),
	}
	for _, d := range bad {
		if p.CheckEvent(d) == nil {
			t.Errorf("retry of message type %#x passed the check", d.Args[0])
		}
	}
}
