package ppengine

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/isa"
	"smtpsim/internal/snapshot"
)

func run(e *Engine, max int) int {
	n := 0
	for e.Busy() && n < max {
		e.Tick(0)
		n++
	}
	return n
}

func alu(pc uint64, dst, src isa.Reg) isa.Instr {
	return isa.Instr{PC: pc, Op: isa.OpIntALU, Dst: dst, Src1: src}
}

func TestDualIssueIndependentOps(t *testing.T) {
	e := New(Config{LineBytes: 64, MissPenalty: 0}, func(uint32) {})
	// Four independent ALU ops: two cycles.
	tr := []isa.Instr{
		alu(0, 1, 0), alu(4, 2, 0), alu(8, 3, 0), alu(12, 4, 0),
	}
	e.Start(tr)
	cycles := run(e, 100)
	if e.Busy() {
		t.Fatal("handler did not complete")
	}
	if cycles != 2 {
		t.Fatalf("4 independent ops took %d cycles, want 2 (dual issue)", cycles)
	}
}

// TestIdleEngineLendsItsLastTrace: once a handler completes, the engine is
// idle and its finished trace is the buffer the next handler is written
// into.
func TestIdleEngineLendsItsLastTrace(t *testing.T) {
	e := New(Config{LineBytes: 64, MissPenalty: 0}, func(uint32) {})
	tr := []isa.Instr{alu(0, 1, 0), alu(4, 2, 1)}
	e.Start(tr)
	if !e.Busy() {
		t.Fatal("engine idle with a handler to run")
	}
	run(e, 100)
	if e.Busy() {
		t.Fatal("handler did not complete")
	}
	if buf := e.TraceBuf(); len(buf) != 0 || cap(buf) != cap(tr) || &buf[:1][0] != &tr[0] {
		t.Fatal("the idle engine does not lend its finished trace")
	}
}

func TestDependenceBreaksPair(t *testing.T) {
	e := New(Config{LineBytes: 64, MissPenalty: 0}, func(uint32) {})
	// r2 = f(r1) depends on r1 = f(r0): serializes.
	tr := []isa.Instr{alu(0, 1, 0), alu(4, 2, 1)}
	e.Start(tr)
	if c := run(e, 100); c != 2 {
		t.Fatalf("dependent pair took %d cycles, want 2", c)
	}
}

func TestOneMemOpPerCycle(t *testing.T) {
	e := New(Config{LineBytes: 64, MissPenalty: 0}, func(uint32) {})
	tr := []isa.Instr{
		{PC: 0, Op: isa.OpLoad, Dst: 1, Addr: 100},
		{PC: 4, Op: isa.OpLoad, Dst: 2, Addr: 200},
	}
	e.Start(tr)
	if c := run(e, 100); c != 2 {
		t.Fatalf("two loads took %d cycles, want 2", c)
	}
}

func TestTakenBranchBubble(t *testing.T) {
	e := New(Config{LineBytes: 64, MissPenalty: 0}, func(uint32) {})
	tr := []isa.Instr{
		{PC: 0, Op: isa.OpBranch, Taken: true, Target: 16},
		alu(16, 1, 0),
	}
	e.Start(tr)
	if c := run(e, 100); c != 3 {
		t.Fatalf("taken branch + op took %d cycles, want 3 (1 bubble)", c)
	}
	if e.TakenBranches != 1 {
		t.Fatal("taken branch not counted")
	}
}

func TestDirectoryCacheMissStalls(t *testing.T) {
	dirAddr := addrmap.DirBase + 0x40
	cold := New(DefaultConfig(512*1024, 10), func(uint32) {})
	tr := []isa.Instr{{PC: 0, Op: isa.OpLoad, Dst: 1, Addr: dirAddr}}
	cold.Start(tr)
	coldCycles := run(cold, 1000)

	// Second access to the same line hits.
	cold.Start([]isa.Instr{{PC: 0, Op: isa.OpLoad, Dst: 1, Addr: dirAddr + 4}})
	warmCycles := run(cold, 1000)
	if coldCycles <= warmCycles {
		t.Fatalf("cold=%d warm=%d: dir miss must stall", coldCycles, warmCycles)
	}
	if cold.DirMisses() != 1 {
		t.Fatalf("dir misses=%d, want 1", cold.DirMisses())
	}
}

func TestPerfectDirectoryCacheNeverMisses(t *testing.T) {
	e := New(DefaultConfig(0, 10), func(uint32) {})
	for i := 0; i < 10; i++ {
		e.Start([]isa.Instr{{PC: 0, Op: isa.OpLoad, Dst: 1, Addr: addrmap.DirBase + uint64(i)*64*1024}})
		run(e, 1000)
	}
	if e.DirMisses() != 0 {
		t.Fatal("perfect cache must not miss")
	}
	// Only instruction-cache cold misses may have stalled; after warmup the
	// single-load handler takes 1 cycle.
	e.Start([]isa.Instr{{PC: 0, Op: isa.OpLoad, Dst: 1, Addr: addrmap.DirBase}})
	if c := run(e, 1000); c != 1 {
		t.Fatalf("warm single-load handler took %d cycles, want 1", c)
	}
}

func TestICacheMissCharged(t *testing.T) {
	e := New(DefaultConfig(0, 10), func(uint32) {})
	e.Start([]isa.Instr{alu(addrmap.CodeBase, 1, 0)})
	c1 := run(e, 1000)
	e.Start([]isa.Instr{alu(addrmap.CodeBase, 1, 0)})
	c2 := run(e, 1000)
	if c1 <= c2 {
		t.Fatalf("cold I-fetch (%d) must be slower than warm (%d)", c1, c2)
	}
	if e.ICMisses() != 1 {
		t.Fatalf("ic misses=%d, want 1", e.ICMisses())
	}
}

func TestEffectsFireInOrder(t *testing.T) {
	var fired []uint32
	e := New(Config{LineBytes: 64, MissPenalty: 0}, func(h uint32) {
		fired = append(fired, h)
	})
	tr := []isa.Instr{
		{PC: 0, Op: isa.OpIntALU, Dst: 1, Effect: 1},
		{PC: 4, Op: isa.OpIntALU, Dst: 2, Effect: 2},
		{PC: 8, Op: isa.OpIntALU, Dst: 3, Effect: 3},
	}
	e.Start(tr)
	run(e, 100)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("effects fired out of order: %v", fired)
	}
}

func TestStartWhileBusyRejected(t *testing.T) {
	e := New(Config{LineBytes: 64, MissPenalty: 0}, func(uint32) {})
	e.Start([]isa.Instr{alu(0, 1, 0)})
	if e.CanAccept() {
		t.Fatal("a busy engine accepts a handler")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Start while busy must panic")
		}
	}()
	e.Start([]isa.Instr{alu(0, 1, 0)})
}

func TestBusyCyclesAccumulate(t *testing.T) {
	e := New(Config{LineBytes: 64, MissPenalty: 0}, func(uint32) {})
	e.Start([]isa.Instr{alu(0, 1, 0), alu(4, 2, 1)})
	run(e, 100)
	if e.BusyCycles != 2 || e.Retired != 2 || e.Handlers != 1 {
		t.Fatalf("stats wrong: busy=%d retired=%d handlers=%d", e.BusyCycles, e.Retired, e.Handlers)
	}
	// Idle ticks don't count.
	e.Tick(0)
	if e.BusyCycles != 2 {
		t.Fatal("idle tick counted as busy")
	}
}

func TestSmallDirCacheMissesMore(t *testing.T) {
	// Same access stream; the 64KB cache must miss at least as often as the
	// 512KB one (this is the Int64KB-vs-Int512KB effect).
	mk := func(bytes int) *Engine {
		return New(DefaultConfig(bytes, 10), func(uint32) {})
	}
	big, small := mk(512*1024), mk(64*1024)
	// Touch 2048 distinct directory lines, then re-touch them.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 2048; i++ {
			a := addrmap.DirBase + uint64(i)*64
			tr := []isa.Instr{{PC: 0, Op: isa.OpLoad, Dst: 1, Addr: a}}
			big.Start(tr)
			run(big, 1000)
			small.Start(tr)
			run(small, 1000)
		}
	}
	if small.DirMisses() < big.DirMisses() {
		t.Fatalf("64KB misses (%d) < 512KB misses (%d)", small.DirMisses(), big.DirMisses())
	}
	if big.DirMisses() != 2048 { // only cold misses: 128KB of entries fit in 512KB
		t.Fatalf("512KB cache should only cold-miss: %d", big.DirMisses())
	}
}

// TestLoadStateRejectsCorruptTraceLength: a restored trace longer than any
// handler can emit is a decode error, never an allocation sized from it.
func TestLoadStateRejectsCorruptTraceLength(t *testing.T) {
	loadInstr := func(d *snapshot.Decoder) isa.Instr { return isa.Instr{PC: d.U64()} }
	for _, n := range []int{isa.MaxTraceLen + 1, 1 << 40, 1 << 60} {
		enc := snapshot.NewEncoder()
		enc.Mark("ppeng")
		for i := 0; i < 4; i++ {
			enc.U64(0) // counters
		}
		enc.Bool(false) // no directory cache
		enc.Bool(false) // no instruction cache
		enc.Int(n)      // trace length
		enc.Int(0)      // pc
		enc.U64(0)      // one instruction
		d, err := snapshot.NewDecoder(enc.Finish())
		if err != nil {
			t.Fatal(err)
		}
		e := New(Config{LineBytes: 64}, func(uint32) {})
		e.LoadState(d, loadInstr)
		if d.Err() == nil {
			t.Fatalf("LoadState accepted a %d-instruction trace", n)
		}
	}
}

// TestLoadStateRejectsImpossibleStall: a stall comes only from a miss (at
// most an instruction-cache plus a directory-cache miss, MissPenalty each)
// or a taken branch (1 cycle), so a restored stall outside
// 0..max(1, 2*MissPenalty) is a decode error. Accepted, a stall of 1<<40
// would keep the handler, and the controller it blocks, busy for good.
func TestLoadStateRejectsImpossibleStall(t *testing.T) {
	loadInstr := func(d *snapshot.Decoder) isa.Instr { return alu(d.U64(), 1, 0) }
	for _, tc := range []struct {
		penalty, stall int
		ok             bool
	}{
		{10, 0, true}, {10, 20, true}, {10, 21, false}, {10, 1 << 40, false}, {10, -1, false},
		{0, 1, true}, {0, 2, false},
	} {
		enc := snapshot.NewEncoder()
		enc.Mark("ppeng")
		for i := 0; i < 4; i++ {
			enc.U64(0) // counters
		}
		enc.Bool(false) // no directory cache
		enc.Bool(false) // no instruction cache
		enc.Int(1)      // trace length
		enc.Int(0)      // pc
		enc.U64(0)      // the instruction
		enc.Int(tc.stall)
		d, err := snapshot.NewDecoder(enc.Finish())
		if err != nil {
			t.Fatal(err)
		}
		e := New(Config{LineBytes: 64, MissPenalty: tc.penalty}, func(uint32) {})
		e.LoadState(d, loadInstr)
		if ok := d.Err() == nil; ok != tc.ok {
			t.Errorf("MissPenalty %d, stall %d: restore error %v, want accepted=%v", tc.penalty, tc.stall, d.Err(), tc.ok)
			continue
		}
		if tc.ok {
			if n := run(e, 100); e.Busy() || n != tc.stall+1 {
				t.Errorf("MissPenalty %d, stall %d: busy=%v after %d ticks; want the handler done in %d", tc.penalty, tc.stall, e.Busy(), n, tc.stall+1)
			}
		}
	}
}
