package machine

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/isa"
	"smtpsim/internal/memctrl"
	"smtpsim/internal/sim"
)

// sharingMachine reproduces the TestFourNodesSharingAllModels workload:
// a store phase, a barrier, then remote reads of the neighbour's slice.
func sharingMachine(model Model) *Machine {
	return attachSharing(New(Config{Model: model, Nodes: 4, AppThreads: 1}))
}

// attachSharing installs sharingMachine's workload on a 4-node, 1-way
// machine.
func attachSharing(m *Machine) *Machine {
	m.Sync.DefineBarrier(0, 4)
	shared := uint64(0)
	for g := 0; g < 4; g++ {
		var ins []isa.Instr
		for i := 0; i < 8; i++ {
			a := shared + uint64(g)*1024 + uint64(i)*128
			ins = append(ins, isa.Instr{Op: isa.OpStore, Src1: 1, Addr: a, Size: 8})
		}
		ins = append(ins, isa.Instr{Op: isa.OpSyncWait, SyncTok: BarrierToken(0, 0)})
		nb := (g + 1) % 4
		for i := 0; i < 8; i++ {
			a := shared + uint64(nb)*1024 + uint64(i)*128
			ins = append(ins, isa.Instr{Op: isa.OpLoad, Dst: 1, Addr: a, Size: 8})
		}
		m.SetSource(g, &sliceSource{ins: seqPCs(addrmap.AppCodeBase+uint64(g)*0x100000, ins)})
	}
	return m
}

// lockMachine reproduces the TestLocksSerializeCriticalSections workload.
func lockMachine() *Machine {
	m := New(Config{Model: SMTp, Nodes: 2, AppThreads: 2})
	lockLine := uint64(addrmap.PageSize)
	counter := uint64(0)
	for g := 0; g < 4; g++ {
		var ins []isa.Instr
		for it := uint64(0); it < 3; it++ {
			inst := uint64(g)*100 + it
			ins = append(ins,
				isa.Instr{Op: isa.OpLoad, Dst: 1, Addr: lockLine, Size: 8},
				isa.Instr{Op: isa.OpSyncWait, SyncTok: LockAcqToken(3, inst)},
				isa.Instr{Op: isa.OpStore, Src1: 1, Addr: lockLine, Size: 8},
				isa.Instr{Op: isa.OpLoad, Dst: 2, Addr: counter, Size: 8},
				isa.Instr{Op: isa.OpIntALU, Dst: 3, Src1: 2},
				isa.Instr{Op: isa.OpStore, Src1: 3, Addr: counter, Size: 8},
				isa.Instr{Op: isa.OpStore, Src1: 1, Addr: lockLine, Size: 8},
				isa.Instr{Op: isa.OpSyncWait, SyncTok: LockRelToken(3, inst)},
			)
		}
		m.SetSource(g, &sliceSource{ins: seqPCs(addrmap.AppCodeBase+uint64(g)*0x100000, ins)})
	}
	return m
}

// migratoryMachine reproduces the TestMigratoryLineStress workload: every
// thread read-modify-writes one hot line.
func migratoryMachine(model Model) *Machine {
	m := New(Config{Model: model, Nodes: 4, AppThreads: 1})
	hot := uint64(2 * addrmap.PageSize)
	for g := 0; g < 4; g++ {
		var ins []isa.Instr
		for i := 0; i < 12; i++ {
			ins = append(ins,
				isa.Instr{Op: isa.OpLoad, Dst: 1, Addr: hot, Size: 8},
				isa.Instr{Op: isa.OpStore, Src1: 1, Addr: hot, Size: 8},
			)
		}
		m.SetSource(g, &sliceSource{ins: seqPCs(addrmap.AppCodeBase+uint64(g)*0x100000, ins)})
	}
	return m
}

// Snapshot restore targets need positioned sources; give the test stream
// the three extra methods.
func (s *sliceSource) Pos() int     { return s.pos }
func (s *sliceSource) SetPos(p int) { s.pos = p }
func (s *sliceSource) Len() int     { return len(s.ins) }

// metricsJSON renders the machine's full deterministic metric snapshot.
func metricsJSON(t *testing.T, m *Machine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return buf.String()
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return la[i] + " != " + lb[i]
		}
	}
	return "length mismatch"
}

// snapshotDiff is the machine-level differential harness. It runs build()
// to completion uninterrupted, then re-runs with a snapshot taken at an
// aligned mid-point and continues, and finally restores that snapshot into
// a third freshly built machine. All three executions must end with
// byte-identical metric snapshots and the same cycle count, and the
// restored machine's immediate re-snapshot must be byte-identical to the
// original snapshot bytes.
func snapshotDiff(t *testing.T, build func() *Machine, budget sim.Cycle) {
	t.Helper()

	// Reference: uninterrupted run.
	m0 := build()
	c0, done := m0.Run(budget)
	if !done {
		t.Fatalf("reference run did not complete in %d cycles", budget)
	}
	// Capture metrics before the coherence walk: CheckCoherence itself
	// performs directory accesses that bump the dir.* counters.
	ref := metricsJSON(t, m0)
	if err := m0.CheckCoherence(); err != nil {
		t.Fatalf("reference coherence: %v", err)
	}

	at := (c0 / 2) &^ (SnapshotAlign - 1)
	if at == 0 {
		at = SnapshotAlign
	}
	if at >= c0 {
		t.Skipf("run too short (%d cycles) to snapshot mid-flight", c0)
	}

	// Split run: snapshot at the mid-point, then continue in place.
	m1 := build()
	if ran, done := m1.Run(at); done || ran != at {
		t.Fatalf("split run: ran %d done=%v, want to pause at %d", ran, done, at)
	}
	snap, err := m1.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at %d: %v", at, err)
	}
	c1, done := m1.Run(budget)
	if !done {
		t.Fatalf("split run did not complete")
	}
	if at+c1 != c0 {
		t.Fatalf("split run finished at %d, reference at %d", at+c1, c0)
	}
	if got := metricsJSON(t, m1); got != ref {
		t.Fatalf("split-run metrics diverge from reference: %s", firstDiff(got, ref))
	}

	// Restore into a fresh machine and resume.
	m2 := build()
	if err := m2.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// A snapshot must round-trip exactly: restore followed by an immediate
	// re-snapshot reproduces the original bytes.
	snap2, err := m2.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot after restore: %v", err)
	}
	if !bytes.Equal(snap, snap2) {
		i := 0
		for i < len(snap) && i < len(snap2) && snap[i] == snap2[i] {
			i++
		}
		t.Fatalf("snapshot round-trip differs at byte %d of %d/%d", i, len(snap), len(snap2))
	}
	c2, done := m2.Run(budget)
	if !done {
		t.Fatalf("restored run did not complete")
	}
	if at+c2 != c0 {
		t.Fatalf("restored run finished at %d, reference at %d", at+c2, c0)
	}
	if got := metricsJSON(t, m2); got != ref {
		t.Fatalf("restored-run metrics diverge from reference: %s", firstDiff(got, ref))
	}
	if err := m2.CheckCoherence(); err != nil {
		t.Fatalf("restored coherence: %v", err)
	}
}

func TestSnapshotDiffPrivateAllModels(t *testing.T) {
	for _, model := range Models() {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			snapshotDiff(t, func() *Machine {
				m := New(Config{Model: model, Nodes: 1, AppThreads: 1})
				m.SetSource(0, &sliceSource{ins: privateStream(0, 40)})
				return m
			}, 2_000_000)
		})
	}
}

func TestSnapshotDiffSharingAllModels(t *testing.T) {
	for _, model := range Models() {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			snapshotDiff(t, func() *Machine { return sharingMachine(model) }, 5_000_000)
		})
	}
}

func TestSnapshotDiffLocks(t *testing.T) {
	snapshotDiff(t, lockMachine, 10_000_000)
}

func TestSnapshotDiffMigratory(t *testing.T) {
	for _, model := range []Model{Int512KB, SMTp} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			snapshotDiff(t, func() *Machine { return migratoryMachine(model) }, 10_000_000)
		})
	}
}

func TestSnapshotRejectsUnaligned(t *testing.T) {
	m := New(Config{Model: SMTp, Nodes: 1, AppThreads: 1})
	m.SetSource(0, &sliceSource{ins: privateStream(0, 40)})
	if ran, done := m.Run(100); done || ran != 100 {
		t.Fatalf("ran %d done=%v, want paused at 100", ran, done)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("snapshot at unaligned cycle must fail")
	}
}

// TestSnapshotCrossKernel pins that the reference kernel is the skipping
// kernel with skipping switched off. Snapshots of the two, taken at the
// same aligned mid-run cycle, match byte for byte apart from the
// skipped-cycles counter; each restores into a machine of the other kernel
// and finishes at the uninterrupted run's cycle with byte-identical
// metrics.
func TestSnapshotCrossKernel(t *testing.T) {
	for _, model := range Models() {
		t.Run(model.String(), func(t *testing.T) {
			build := func(reference bool) *Machine {
				return attachSharing(New(Config{Model: model, Nodes: 4, AppThreads: 1, ReferenceKernel: reference}))
			}
			const budget = 5_000_000
			m0 := build(false)
			c0, done := m0.Run(budget)
			if !done {
				t.Fatalf("uninterrupted run did not complete in %d cycles", budget)
			}
			want := metricsJSON(t, m0)
			at := (c0 / 2) &^ (SnapshotAlign - 1)
			if at == 0 || at >= c0 {
				t.Fatalf("run too short (%d cycles) to snapshot mid-flight", c0)
			}

			snaps := map[bool][]byte{}
			for _, reference := range []bool{false, true} {
				m := build(reference)
				if ran, done := m.Run(at); done || ran != at {
					t.Fatalf("reference=%v: ran %d done=%v, want to pause at %d", reference, ran, done, at)
				}
				snap, err := m.Snapshot()
				if err != nil {
					t.Fatalf("reference=%v: snapshot at %d: %v", reference, at, err)
				}
				snaps[reference] = snap
			}

			// The skipped-cycles counter is the machine header's seventh
			// field: model, nodes, threads, mGHz, cycle, sequence, skipped.
			skippedAt := bytes.Index(snaps[false], []byte("\x04mach")) + len("\x04mach") + 6*8
			if got := binary.LittleEndian.Uint64(snaps[true][skippedAt:]); got != 0 {
				t.Fatalf("reference snapshot records %d skipped cycles", got)
			}
			if binary.LittleEndian.Uint64(snaps[false][skippedAt:]) == 0 {
				t.Fatal("the skipping kernel elided no cycle before the snapshot")
			}
			skipping := bytes.Clone(snaps[false])
			binary.LittleEndian.PutUint64(skipping[skippedAt:], 0)
			if !bytes.Equal(skipping, snaps[true]) {
				i := 0
				for i < len(skipping) && i < len(snaps[true]) && skipping[i] == snaps[true][i] {
					i++
				}
				t.Fatalf("skipping and reference snapshots differ at byte %d of %d/%d", i, len(skipping), len(snaps[true]))
			}

			for _, reference := range []bool{false, true} {
				m := build(reference)
				if err := m.Restore(snaps[!reference]); err != nil {
					t.Fatalf("restore into reference=%v: %v", reference, err)
				}
				c, done := m.Run(budget)
				if !done {
					t.Fatalf("restored reference=%v run did not complete", reference)
				}
				if at+c != c0 {
					t.Fatalf("restored reference=%v run finished at %d, uninterrupted at %d", reference, at+c, c0)
				}
				if got := metricsJSON(t, m); got != want {
					t.Fatalf("restored reference=%v metrics diverge: %s", reference, firstDiff(got, want))
				}
			}
		})
	}
}

// sharingSnapshot snapshots sharingMachine(SMTp) four batches into its run.
func sharingSnapshot(t *testing.T) []byte {
	t.Helper()
	m := sharingMachine(SMTp)
	if _, done := m.Run(4 * SnapshotAlign); done {
		t.Fatal("run finished before the snapshot point")
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRestoreRejectsCorruptBounds patches the counts, cycles and stream
// positions Restore sizes, schedules or seeks by in a real snapshot:
// Restore must return an error, never panic, exhaust memory, or accept a
// position outside the stream.
func TestRestoreRejectsCorruptBounds(t *testing.T) {
	snap := sharingSnapshot(t)
	field := func(mark string, skip int) int {
		at := bytes.Index(snap, []byte(mark))
		if at < 0 {
			t.Fatalf("no %q section in the snapshot", mark)
		}
		return at + len(mark) + 8*skip
	}
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(snap[off:]) }
	// The machine header: model, nodes, threads, mGHz, cycle, sequence,
	// skipped, then the component count and the components' next ticks.
	now := u64(field("\x04mach", 4))
	comps := field("\x04mach", 7)
	if n := u64(comps); n != uint64(sharingMachine(SMTp).Eng.NumClocked()) {
		t.Fatalf("component count reads %d", n)
	}
	// The stream positions: thread count, then one position per thread.
	threads := field("\x03src", 0)
	if n := u64(threads); n != 4 {
		t.Fatalf("thread count reads %d", n)
	}
	// The event list: count, then the first event's due cycle, position
	// lanes, sequence, owning node and one-byte kind.
	events := field("\x04evts", 0)
	if n := u64(events); n == 0 || u64(events+8) <= now {
		t.Fatalf("event section reads %d events, first due at %d (now %d)", n, u64(events+8), now)
	}
	owner := events + 8*6
	kind := owner + 8
	if o := u64(owner); o >= 4 || snap[kind] == 0 {
		t.Fatalf("first event reads owner %d, kind %d", o, snap[kind])
	}
	for _, tc := range []struct {
		name string
		off  int
		v    int64
	}{
		{"negative component count", comps, -1},
		{"huge component count", comps, 1 << 40},
		{"component due at the snapshot cycle", comps + 8, int64(now)},
		{"event due at cycle 0", events + 8, 0},
		{"event owned by a node past the last", owner, 4},
		{"event owned by a negative node", owner, -1},
		{"negative stream position", threads + 8, -5},
		{"stream position past the end", threads + 8, 1 << 40},
	} {
		bad := bytes.Clone(snap)
		binary.LittleEndian.PutUint64(bad[tc.off:], uint64(tc.v))
		if err := sharingMachine(SMTp).Restore(bad); err == nil {
			t.Errorf("%s: Restore accepted the corrupt snapshot", tc.name)
		}
	}
	for _, k := range []uint8{0, 40} { // kind 0 and a kind no component claims
		bad := bytes.Clone(snap)
		bad[kind] = k
		if err := sharingMachine(SMTp).Restore(bad); err == nil {
			t.Errorf("event kind %d: Restore accepted the corrupt snapshot", k)
		}
	}
	if err := sharingMachine(SMTp).Restore(snap); err != nil {
		t.Fatalf("uncorrupted snapshot: %v", err)
	}
}

// TestRestoreRejectsCorruptMemSection corrupts the slab coordinates of the
// first node's directory memory in a real snapshot: Restore must return an
// error, never panic, exhaust memory, or restore the slab elsewhere.
func TestRestoreRejectsCorruptMemSection(t *testing.T) {
	snap := sharingSnapshot(t)
	// Node 0's section opens with its memory: mark, slab count, then the
	// first slab's group and slab indices.
	at := bytes.Index(snap, []byte("\x04node\x03mem"))
	if at < 0 {
		t.Fatal("no node memory section in the snapshot")
	}
	count := at + len("\x04node\x03mem")
	hi, mid := count+8, count+16
	if n := binary.LittleEndian.Uint64(snap[count:]); n == 0 {
		t.Fatal("node 0 has no memory slabs to corrupt")
	}
	for _, tc := range []struct {
		name string
		off  int
		v    int64
	}{
		{"negative group", hi, -3},
		{"group past the address space", hi, 1 << 20},
		{"negative slab", mid, -1},
		{"slab past its group", mid, 1 << 20},
	} {
		bad := bytes.Clone(snap)
		binary.LittleEndian.PutUint64(bad[tc.off:], uint64(tc.v))
		if err := sharingMachine(SMTp).Restore(bad); err == nil {
			t.Errorf("%s: Restore accepted the corrupt snapshot", tc.name)
		}
	}
	if err := sharingMachine(SMTp).Restore(snap); err != nil {
		t.Fatalf("uncorrupted snapshot: %v", err)
	}
}

// TestRestoreMatchesDeferredEnqueues: on a non-integrated controller
// (Base) each in-transit local request holds a queue slot that exactly one
// pending KMCDeferred event fills. Handing that event to another node
// leaves one slot that nothing will ever fill and an event with no slot to
// fill, so Restore must reject the snapshot.
func TestRestoreMatchesDeferredEnqueues(t *testing.T) {
	m := sharingMachine(Base)
	for k := 0; k < 64; k++ {
		if _, done := m.Run(SnapshotAlign); done {
			break
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// The event list: count, then 97-byte events (due cycle, three
		// position lanes, sequence, owning node, kind, six arguments).
		events := bytes.Index(snap, []byte("\x04evts")) + len("\x04evts")
		for i := 0; i < int(binary.LittleEndian.Uint64(snap[events:])); i++ {
			owner := events + 8 + 97*i + 40
			if snap[owner+8] != memctrl.KMCDeferred {
				continue
			}
			bad := bytes.Clone(snap)
			o := binary.LittleEndian.Uint64(snap[owner:])
			binary.LittleEndian.PutUint64(bad[owner:], (o+1)%4)
			if err := sharingMachine(Base).Restore(bad); err == nil {
				t.Fatalf("Restore accepted node %d's deferred enqueue handed to node %d", o, (o+1)%4)
			}
			if err := sharingMachine(Base).Restore(snap); err != nil {
				t.Fatalf("uncorrupted snapshot: %v", err)
			}
			return
		}
	}
	t.Fatal("no snapshot point held a deferred enqueue")
}
