// Package workload synthesizes the six shared-memory applications of the
// paper's Table 1 — FFT, FFTW, LU, Ocean, Radix-Sort, and Water — as
// deterministic per-thread instruction streams.
//
// The paper runs compiled MIPS binaries; this reproduction has no MIPS
// toolchain, so each application is modeled by its communication and
// computation signature instead (DESIGN.md §4): instruction mix, loop/PC
// structure (so the I-cache and branch predictors behave), data
// partitioning with page placement, the application's sharing pattern
// (all-to-all transposes, block broadcast, nearest-neighbour stencils,
// scattered permutation writes, migratory records), hand-inserted
// prefetching, and software tree barriers and test-lock-test-set-unlock
// locks executed as real loads and stores so synchronization produces real
// coherence traffic.
package workload

import (
	"fmt"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/isa"
	"smtpsim/internal/machine"
	"smtpsim/internal/pipeline"
	"smtpsim/internal/sim"
)

// App names one of the six applications.
type App int

// Applications (paper Table 1).
const (
	FFT App = iota
	FFTW
	LU
	Ocean
	Radix
	Water
	NumApps
)

var appNames = [NumApps]string{"FFT", "FFTW", "LU", "Ocean", "Radix-Sort", "Water"}

// String names the application.
func (a App) String() string {
	if int(a) < len(appNames) {
		return appNames[a]
	}
	return "App?"
}

// Apps lists all six applications in paper order.
func Apps() []App { return []App{FFT, FFTW, LU, Ocean, Radix, Water} }

// Params selects an application instance.
type Params struct {
	App     App
	Threads int     // global application thread count
	Nodes   int     // machine size (for page placement)
	Scale   float64 // problem-size multiplier; 1.0 = test/bench scale
	Seed    uint64

	// SizeFor anchors the problem size to a thread count other than
	// Threads, so strong-scaling (speedup) studies run the same problem at
	// every configuration. Zero means Threads.
	SizeFor int
}

// sizing returns the thread count problem sizes are derived from.
func (p Params) sizing() int {
	if p.SizeFor > 0 {
		return p.SizeFor
	}
	return p.Threads
}

// BarrierDef declares a barrier object and its participant count.
type BarrierDef struct {
	Obj uint64
	N   int
}

// PlaceDef assigns a data range to a home node.
type PlaceDef struct {
	Addr, Size uint64
	Home       int
}

// Workload is a built application: one instruction stream per thread plus
// the synchronization and placement metadata the machine needs.
type Workload struct {
	Name     string
	Params   Params
	Streams  [][]isa.Instr
	Barriers []BarrierDef
	Places   []PlaceDef
}

// TotalInstructions returns the dynamic instruction count across threads.
func (w *Workload) TotalInstructions() int {
	n := 0
	for _, s := range w.Streams {
		n += len(s)
	}
	return n
}

// SliceSource adapts a materialized stream to pipeline.InstrSource.
type SliceSource struct {
	ins []isa.Instr
	pos int

	// syncAt caches the index of the next OpSyncWait at or after pos
	// (len(ins) once none remain); the forward scan in SyncDistance resumes
	// from it, so the whole stream is scanned at most once per run.
	syncAt int
}

// NewSliceSource wraps a stream.
func NewSliceSource(ins []isa.Instr) *SliceSource { return &SliceSource{ins: ins, syncAt: -1} }

// Peek implements pipeline.InstrSource.
func (s *SliceSource) Peek() *isa.Instr {
	if s.pos >= len(s.ins) {
		return nil
	}
	return &s.ins[s.pos]
}

// Advance implements pipeline.InstrSource.
func (s *SliceSource) Advance() { s.pos++ }

// Done implements pipeline.InstrSource.
func (s *SliceSource) Done() bool { return s.pos >= len(s.ins) }

// Pos returns the number of consumed instructions (machine snapshots).
func (s *SliceSource) Pos() int { return s.pos }

// Len returns the stream length, the largest valid position.
func (s *SliceSource) Len() int { return len(s.ins) }

// SetPos repositions the stream (machine restore). The sync-distance cache
// is invalidated so the next SyncDistance rescans from the new position.
func (s *SliceSource) SetPos(p int) {
	s.pos = p
	s.syncAt = -1
}

// SyncDistance implements pipeline.SyncDistancer: the number of not-yet-
// consumed instructions before the next OpSyncWait, or -1 when none
// remain. Amortized O(1): the scan position only moves forward.
func (s *SliceSource) SyncDistance() int {
	if s.syncAt < s.pos {
		i := s.pos
		for i < len(s.ins) && s.ins[i].Op != isa.OpSyncWait {
			i++
		}
		s.syncAt = i
	}
	if s.syncAt >= len(s.ins) {
		return -1
	}
	return s.syncAt - s.pos
}

var (
	_ pipeline.InstrSource   = (*SliceSource)(nil)
	_ pipeline.SyncDistancer = (*SliceSource)(nil)
)

// Build synthesizes the selected application.
func Build(p Params) *Workload {
	if p.Threads < 1 {
		panic("workload: need at least one thread")
	}
	if p.Nodes < 1 {
		p.Nodes = 1
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	var w *Workload
	switch p.App {
	case FFT:
		w = buildFFT(p)
	case FFTW:
		w = buildFFTW(p)
	case LU:
		w = buildLU(p)
	case Ocean:
		w = buildOcean(p)
	case Radix:
		w = buildRadix(p)
	case Water:
		w = buildWater(p)
	default:
		panic(fmt.Sprintf("workload: unknown app %d", p.App))
	}
	w.Params = p
	return w
}

// Attach installs the workload on a machine: fresh instruction sources,
// barrier definitions, and page placement. The same Workload can be
// attached to many machines (each model of a comparison sees the identical
// stream).
func Attach(m *machine.Machine, w *Workload) {
	if m.GlobalThreads() != len(w.Streams) {
		panic(fmt.Sprintf("workload: %d streams but machine has %d threads",
			len(w.Streams), m.GlobalThreads()))
	}
	for _, b := range w.Barriers {
		m.Sync.DefineBarrier(b.Obj, b.N)
	}
	for _, pl := range w.Places {
		m.AMap.PlaceRange(pl.Addr, pl.Size, addrmap.NodeID(pl.Home%m.Cfg.Nodes))
	}
	for g, s := range w.Streams {
		m.SetSource(g, NewSliceSource(s))
	}
}

// Data-region bases (all below addrmap.DirBase, i.e. coherent data).
const (
	regionA    uint64 = 1 << 32 // primary array / matrix / grid / keys
	regionB    uint64 = 2 << 32 // secondary array (transpose target, etc.)
	regionC    uint64 = 3 << 32 // histograms / global sums
	regionSync uint64 = 4 << 32 // barrier flag and release lines
	lineSize          = addrmap.CoherenceLineSize
)

// gen builds one thread's instruction stream.
type gen struct {
	p       Params
	gtid    int
	ins     []isa.Instr
	pc      uint64
	rng     *sim.Rand
	faux    isa.Reg           // rotating FP destination
	iaux    isa.Reg           // rotating integer destination
	barSeq  map[uint64]uint64 // per-barrier instance counters
	lockSeq uint64
}

// newGen starts thread gtid's generator, appending into scratch (reused
// across the threads of one Build; see finish).
func newGen(p Params, gtid int, scratch []isa.Instr) *gen {
	return &gen{
		p:    p,
		gtid: gtid,
		ins:  scratch[:0],
		// Stagger thread code so same-offset loop bodies do not alias in
		// the I-cache sets (threads of a real program share one text
		// segment; synthetic per-thread copies must not all map to set 0).
		pc:     addrmap.AppCodeBase + uint64(gtid)<<21 + uint64(gtid%29)*1216,
		rng:    sim.NewRand(p.Seed*1000003 + uint64(gtid)*7919 + uint64(p.App)),
		barSeq: make(map[uint64]uint64),
	}
}

// finish appends the thread's stream to w as an exact-length copy and
// returns the scratch buffer for the next thread's generator: a Build grows
// one buffer to its longest stream instead of every stream growing by
// doubling, and each stream holds no spare capacity for the run.
func (g *gen) finish(w *Workload) []isa.Instr {
	s := make([]isa.Instr, len(g.ins))
	copy(s, g.ins)
	w.Streams = append(w.Streams, s)
	return g.ins[:0]
}

func (g *gen) emit(in isa.Instr) {
	in.PC = g.pc
	g.pc += 4
	g.ins = append(g.ins, in)
}

func (g *gen) intReg() isa.Reg {
	g.iaux = 1 + (g.iaux)%12
	return g.iaux
}

func (g *gen) fpReg() isa.Reg {
	g.faux = isa.FirstFP + (g.faux-isa.FirstFP+1)%12
	return g.faux
}

// load emits an 8-byte load into an FP register (fp=true) or integer
// register.
func (g *gen) load(addr uint64, fp bool) isa.Reg {
	var dst isa.Reg
	if fp {
		dst = g.fpReg()
	} else {
		dst = g.intReg()
	}
	g.emit(isa.Instr{Op: isa.OpLoad, Dst: dst, Addr: addr, Size: 8})
	return dst
}

// store emits an 8-byte store of src (RegNone allowed).
func (g *gen) store(addr uint64, src isa.Reg) {
	g.emit(isa.Instr{Op: isa.OpStore, Src1: src, Addr: addr, Size: 8})
}

// prefetch emits a non-binding prefetch (exclusive when excl).
func (g *gen) prefetch(addr uint64, excl bool) {
	op := isa.OpPrefetch
	if excl {
		op = isa.OpPrefetchX
	}
	g.emit(isa.Instr{Op: op, Addr: addr, Size: 8})
}

// fpCompute emits n dependent floating-point operations consuming src.
func (g *gen) fpCompute(n int, src isa.Reg) {
	prev := src
	if !prev.Valid() {
		prev = g.fpReg()
	}
	for i := 0; i < n; i++ {
		dst := g.fpReg()
		op := isa.OpFPALU
		if i%3 == 1 {
			op = isa.OpFPMul
		}
		g.emit(isa.Instr{Op: op, Dst: dst, Src1: prev})
		prev = dst
	}
}

// intCompute emits n integer operations (address arithmetic and the like).
func (g *gen) intCompute(n int) {
	for i := 0; i < n; i++ {
		dst := g.intReg()
		g.emit(isa.Instr{Op: isa.OpIntALU, Dst: dst, Src1: 1 + (dst)%8})
	}
}

// loop emits `iters` repetitions of body at a stable code address: every
// iteration re-emits the same PCs and ends with a backward branch, taken on
// all but the last iteration — exactly what trains the BTB and the local
// history predictor like a real inner loop.
func (g *gen) loop(iters int, body func()) {
	if iters <= 0 {
		return
	}
	top := g.pc
	for it := 0; it < iters; it++ {
		g.pc = top
		body()
		g.emit(isa.Instr{
			Op:     isa.OpBranch,
			Src1:   1,
			Taken:  it != iters-1,
			Target: top,
		})
	}
}

// condBranch emits a data-dependent forward branch with the given taken
// outcome (target = skip one instruction, which is emitted only on the
// not-taken path to keep the stream linear).
func (g *gen) condBranch(taken bool) {
	g.emit(isa.Instr{Op: isa.OpBranch, Src1: 2, Taken: taken, Target: g.pc + 8})
	if !taken {
		g.intCompute(1)
	} else {
		g.pc += 4 // the skipped slot
	}
}

// barrier emits a software tree barrier: an arrival store to this thread's
// flag line (invalidating the parent's copy), the ordering wait, and
// release-line loads that fetch lines written remotely.
func (g *gen) barrier(obj uint64) {
	inst := g.barSeq[obj]
	g.barSeq[obj] = inst + 1
	flags := regionSync + obj*64*lineSize
	parent := (g.gtid - 1) / 2
	// Arrival: store to a line the parent reads (tree fan-in traffic).
	g.store(flags+uint64(parent)*lineSize, 1)
	g.emit(isa.Instr{Op: isa.OpSyncWait, SyncTok: machine.BarrierToken(obj, inst)})
	// Release: the root writes the release line; everyone re-reads it.
	release := flags + 48*lineSize + (inst%8)*lineSize
	if g.gtid == 0 {
		g.store(release, 1)
	}
	g.load(release, false)
}

// lockAcquire emits test-lock-test-set for the lock object whose flag lives
// at lockLine.
func (g *gen) lockAcquire(obj uint64, lockLine uint64) {
	g.load(lockLine, false) // test
	g.emit(isa.Instr{Op: isa.OpSyncWait, SyncTok: machine.LockAcqToken(obj, uint64(g.gtid)<<32|g.lockSeq)})
	g.load(lockLine, false) // test again (it moved to us)
	g.store(lockLine, 1)    // set
}

// lockRelease emits unlock.
func (g *gen) lockRelease(obj uint64, lockLine uint64) {
	g.store(lockLine, 1)
	g.emit(isa.Instr{Op: isa.OpSyncWait, SyncTok: machine.LockRelToken(obj, uint64(g.gtid)<<32|g.lockSeq)})
	g.lockSeq++
}

// scaleInt applies the problem-size multiplier with a floor.
func scaleInt(base int, scale float64, min int) int {
	v := int(float64(base) * scale)
	if v < min {
		return min
	}
	return v
}

// partition splits n items across P threads, returning [lo, hi) for g.
func partition(n, threads, g int) (int, int) {
	per := n / threads
	lo := g * per
	hi := lo + per
	if g == threads-1 {
		hi = n
	}
	return lo, hi
}

// placeBlocked assigns each thread's partition of a region to that thread's
// node ("proper page placement to minimize remote accesses", §3).
func placeBlocked(w *Workload, base uint64, bytesPerItem, items int, p Params) {
	for t := 0; t < p.Threads; t++ {
		lo, hi := partition(items, p.Threads, t)
		node := t * p.Nodes / p.Threads
		w.Places = append(w.Places, PlaceDef{
			Addr: base + uint64(lo*bytesPerItem),
			Size: uint64((hi - lo) * bytesPerItem),
			Home: node,
		})
	}
}
