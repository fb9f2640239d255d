// Package pipeline implements the simulated out-of-order SMT processor core
// of the paper (Table 2): nine pipe stages, ICOUNT(2,8) fetch, per-thread
// active lists and return-address stacks, a shared physical register file,
// shared integer/FP issue queues, a unified load/store queue with per-thread
// logical sections, seven ALUs (one dedicated to address calculation), three
// FPUs, and round-robin graduation of width eight.
//
// It also implements the SMTp extensions of §2: a statically-bound protocol
// thread context whose fetch is governed by the Protocol PC Valid (PPCV)
// bit, handler dispatch coupling with optional Look-Ahead Scheduling, one
// reserved instance of every shared resource for deadlock freedom, and
// fully-associative bypass buffers used when protocol misses conflict with
// in-flight application misses.
package pipeline

import (
	"smtpsim/internal/bpred"
	"smtpsim/internal/cache"
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
)

// Config is the core configuration (paper Table 2 defaults via DefaultConfig).
type Config struct {
	AppThreads  int
	HasProtocol bool // SMTp: add the protocol thread context
	LAS         bool // look-ahead scheduling

	// PerfectProtoCaches makes every protocol-thread instruction and data
	// access hit (the §2.3 "separate and perfect protocol caches" study
	// that isolates cache-pollution cost).
	PerfectProtoCaches bool
	// SlowBitOps models the absence of the bit-manipulation ALU ops
	// (population count and friends) by charging emulation latency
	// (§2.1's 0.3% study).
	SlowBitOps bool

	FetchWidth   int // 8
	FetchThreads int // 2
	DecodeQ      int // 8
	RenameQ      int // 8
	ActiveList   int // 128 per thread
	BranchStack  int // 32
	IntRegs      int // physical, incl. logical mappings
	FPRegs       int
	IntQ         int // 32
	FPQ          int // 32
	LSQ          int // 64
	IntALUs      int // 6 general + the dedicated AGU
	FPUs         int // 3
	CommitWidth  int // 8
	StoreBuffer  int // 32
	MSHRs        int // 16 general (+1 retiring store)

	L1I, L1D, L2 cache.Config
	BypassLines  int // 16 each (SMTp only)
	L2HitCyc     int // 9 round trip
	IMissCyc     int // app instruction fill from local memory
	NakBackoff   int // cycles before retrying a NAKed transaction

	TLBEntries int // 128, fully associative, LRU (0 disables the TLBs)
	TLBWalkCyc int // hardware page-walk latency on a TLB miss
}

// DefaultConfig returns the paper's processor configuration for the given
// number of application threads, with or without the protocol context.
func DefaultConfig(appThreads int, smtp bool) Config {
	regs := map[int]int{1: 160, 2: 192, 4: 256}[appThreads]
	if regs == 0 {
		regs = 160 + 32*(appThreads-1)
	}
	return Config{
		AppThreads:  appThreads,
		HasProtocol: smtp,
		LAS:         smtp,
		FetchWidth:  8, FetchThreads: 2,
		DecodeQ: 8, RenameQ: 8,
		ActiveList: 128, BranchStack: 32,
		IntRegs: regs, FPRegs: regs,
		IntQ: 32, FPQ: 32, LSQ: 64,
		IntALUs: 6, FPUs: 3,
		CommitWidth: 8, StoreBuffer: 32, MSHRs: 16,
		L1I:         cache.Config{Size: 32 * 1024, LineSize: 64, Assoc: 2, HitLat: 1},
		L1D:         cache.Config{Size: 32 * 1024, LineSize: 32, Assoc: 2, HitLat: 1},
		L2:          cache.Config{Size: 2 * 1024 * 1024, LineSize: 128, Assoc: 8, HitLat: 9},
		BypassLines: 16,
		L2HitCyc:    9,
		IMissCyc:    180,
		NakBackoff:  120,
		TLBEntries:  128,
		TLBWalkCyc:  50,
	}
}

// Downstream is the pipeline's interface to the node's memory controller.
type Downstream interface {
	// EnqueueLocal queues a processor-interface request of the given
	// message type for a line; false = queue full. The controller builds
	// the message itself from the two scalars.
	EnqueueLocal(t uint8, line uint64) bool
	// ProtocolMiss services an SMTp protocol-thread L2 miss on the separate
	// protocol bus, firing the completion event d when the line arrives.
	ProtocolMiss(line uint64, d sim.Desc)
	// IMiss fills an application instruction line from local memory,
	// firing the completion event d when the line arrives.
	IMiss(line uint64, d sim.Desc)
	// FireEffect fires the effect a protocol-trace instruction's handle
	// names (SMTp only).
	FireEffect(effect uint32)
}

// SyncChecker resolves OpSyncWait instructions. Poll registers arrival on
// first call for a token and reports whether the thread may proceed.
type SyncChecker interface {
	SyncPoll(global int, token uint64) bool
}

// InstrSource supplies an application thread's dynamic instruction stream.
type InstrSource interface {
	// Peek returns the next correct-path instruction without consuming it,
	// or nil if the thread is (momentarily or permanently) out of work.
	Peek() *isa.Instr
	// Advance consumes the peeked instruction.
	Advance()
	// Done reports that the stream is exhausted for good.
	Done() bool
}

// SyncDistancer is optionally implemented by instruction sources that can
// report how far ahead their next synchronization point lies. SyncDistance
// returns the number of not-yet-fetched instructions before the next
// OpSyncWait, or -1 when no synchronization remains in the stream. The
// shard coordinator uses it as a conservative lookahead bound: a thread
// whose next wait is beyond the fetch horizon of a time quantum cannot
// touch the machine-global sync manager within it.
type SyncDistancer interface {
	SyncDistance() int
}

// uop is one in-flight dynamic instruction.
type uop struct {
	in  isa.Instr
	tid int
	seq uint64 // global age

	// Register renaming. The rdy* fields are the sources'/destination's
	// indices into the pipeline's flat ready array (FP bank offset folded in
	// at rename), so per-cycle wakeup checks are bare slice loads.
	physDst, oldDst int16
	physSrc1        int16
	physSrc2        int16
	rdySrc1         int16
	rdySrc2         int16
	rdyDst          int16

	// Branch state.
	pred      bpred.Prediction
	predTaken bool
	mispred   bool
	brCkpt    int  // branch stack slot, -1 none
	counted   bool // contributes to the thread's ICOUNT

	// Scheduling state.
	stage      stage
	inIQ       bool
	inLSQ      bool
	issued     bool
	executed   bool // result produced (or store address ready)
	squashed   bool
	doneAt     sim.Cycle
	waitingMem bool // load parked on an MSHR
	polled     bool // head-of-ROB sync wait has registered its first poll
	pooled     bool // on the free list (double-free guard)

	wrongPath bool
}

type stage uint8

const (
	sFetched stage = iota
	sDecoded
	sRenamed
	sDone // completed execution, awaiting graduation
)

// Pipeline is one node's processor core.
type Pipeline struct {
	cfg   Config
	eng   *sim.Engine
	down  Downstream
	sync  SyncChecker
	owner int32 // node id stamped into event descriptors

	pred *bpred.Tournament
	btb  *bpred.BTB

	l1i, l1d, l2      *cache.Cache
	ibyp, dbyp, l2byp *cache.Cache
	mshr              *cache.MSHRFile
	itlb, dtlb        *tlb

	threads []*thread

	intFree, fpFree *freeList
	ready           []bool // physical register ready bits (int then fp space)
	// Issue wakeup, derived from the queues and ready (rebuilt on
	// restore): qWake has a queue's bit set while the queue may hold a uop
	// whose sources are all ready, and waiters[r] the bits of the queues
	// holding a uop that waits on ready index r.
	qWake   uint8
	waiters []uint8

	decodeQ []*uop
	renameQ []*uop
	intQ    []*uop
	fpQ     []*uop
	lsq     []*uop

	brStackUsed int
	divBusy     int // unpipelined divides in flight

	storeBuf   []storeEntry
	wbPending  map[uint64]bool
	acksWanted map[uint64]int

	// refillDue maps an outstanding application miss line to the earliest
	// network delivery ever scheduled for it at this node — the monotone
	// minimum over every sync-point replay's hints (RefillHint) across the
	// MSHR entry's lifetime. SyncHorizon reads it to bound how soon a
	// memory-stalled SyncWait could reach its first poll; DeliverRefill
	// clears it when the miss completes. Planning state only: it never
	// influences simulated behaviour, but it is snapshotted so a restored
	// run plans — and therefore reports shard telemetry — identically.
	refillDue map[uint64]sim.Cycle
	// remoteHome, when set by the machine, reports whether an address's
	// home directory is on another node — the precondition for trusting
	// refillDue (remote-home misses complete only through replayed
	// network deliveries; local-home paths run on unhinted local events).
	remoteHome func(addr uint64) bool

	proto *protoState

	ckptsArr []checkpoint
	inflight []*uop
	commitRR int

	// Kernel fast-path state (see DESIGN.md, "Kernel fast path"). active is
	// derived fresh each Tick: did this cycle change any state beyond the
	// per-cycle deltas Skipped re-applies? wake latches external input
	// (refill deliveries, protocol dispatch, sync releases) that arrives
	// between this core's ticks and could unblock it without any local
	// timer firing.
	active bool
	wake   bool
	// lazyH settles lazily-deferred ticks of this core (nil when the core
	// is not registered for lazy ticking, e.g. in unit tests).
	lazyH *sim.TickHandle

	// Reused per-cycle scratch (allocation-free steady state).
	scratch      []*uop
	memScratch   []*uop
	seen         []bool
	fetchCands   []*thread
	uopPool      []*uop
	blockedLines []uint64

	seq uint64

	// restoreUops indexes restored uops by sequence number while LoadState
	// resolves the snapshot's uop references.
	restoreUops map[uint64]*uop

	// Statistics.
	Cycles          uint64
	Retired         []uint64 // per hardware context
	MemStallCycles  []uint64 // per app thread
	BrResolved      []uint64
	BrMispredicted  []uint64
	SquashedUops    []uint64
	SquashCycles    []uint64 // cycles in which >=1 uop of the ctx was squash-freed
	ProtoActiveCyc  uint64
	ProtoOccBrStack stats.Peak
	ProtoOccIntReg  stats.Peak
	ProtoOccIQ      stats.Peak
	ProtoOccLSQ     stats.Peak
	L1DMissed       uint64
	L2Missed        uint64
	BypassFills     uint64
	UpgradeReqs     uint64
	Prefetches      uint64
	ProtoRetrySpins uint64
	SendPISpins     uint64
	StorePollSpins  uint64
}

// storeEntry is one committed store in the store buffer: everything the
// drain needs, copied out of the store's uop when it retires.
type storeEntry struct {
	seq     uint64 // the store's sequence number (its MSHR waiter token)
	addr    uint64
	tid     int
	pending bool // waiting for a refill
}

// New builds a core. down may be nil for front-end-only unit tests (any
// memory access will then panic).
func New(cfg Config, eng *sim.Engine, down Downstream, sync SyncChecker) *Pipeline {
	nctx := cfg.AppThreads
	if cfg.HasProtocol {
		nctx++
	}
	p := &Pipeline{
		cfg:  cfg,
		eng:  eng,
		down: down,
		sync: sync,
		pred: bpred.NewTournament(nctx),
		btb:  bpred.NewBTB(256, 4),
		l1i:  cache.New(cfg.L1I),
		l1d:  cache.New(cfg.L1D),
		l2:   cache.New(cfg.L2),
		mshr: cache.NewMSHRFile(cfg.MSHRs, cfg.HasProtocol),

		wbPending:  make(map[uint64]bool),
		acksWanted: make(map[uint64]int),
		refillDue:  make(map[uint64]sim.Cycle),

		Retired:        make([]uint64, nctx),
		MemStallCycles: make([]uint64, nctx),
		BrResolved:     make([]uint64, nctx),
		BrMispredicted: make([]uint64, nctx),
		SquashedUops:   make([]uint64, nctx),
		SquashCycles:   make([]uint64, nctx),
	}
	if cfg.TLBEntries > 0 {
		p.itlb = newTLB(cfg.TLBEntries)
		p.dtlb = newTLB(cfg.TLBEntries)
	}
	if cfg.HasProtocol {
		p.ibyp = cache.NewBypass(cfg.L1I.LineSize, cfg.BypassLines)
		p.dbyp = cache.NewBypass(cfg.L1D.LineSize, cfg.BypassLines)
		p.l2byp = cache.NewBypass(cfg.L2.LineSize, cfg.BypassLines)
	}
	p.intFree = newFreeList(cfg.IntRegs)
	p.fpFree = newFreeList(cfg.FPRegs)
	p.ready = make([]bool, cfg.IntRegs+cfg.FPRegs)
	p.waiters = make([]uint8, len(p.ready))
	for i := 0; i < nctx; i++ {
		t := newThread(i, cfg.HasProtocol && i == cfg.AppThreads, cfg)
		// Boot: map all logical registers (the protocol boot sequence
		// initializes all 32 protocol registers, §2.2).
		for l := 1; l <= isa.NumLogical; l++ {
			var r int16
			if isa.Reg(l).IsFP() {
				r = p.fpFree.alloc(false)
				if r < 0 {
					panic("pipeline: not enough FP registers for logical state")
				}
				t.mapTable[l] = r
				p.markReady(p.readyIndex(true, r))
			} else {
				r = p.intFree.alloc(false)
				if r < 0 {
					panic("pipeline: not enough integer registers for logical state")
				}
				t.mapTable[l] = r
				p.markReady(r)
			}
		}
		p.threads = append(p.threads, t)
	}
	if cfg.HasProtocol {
		p.intFree.reserve(1) // the protocol thread's reserved rename register
		p.proto = newProtoState(p)
	}
	p.seen = make([]bool, nctx)
	return p
}

// newUop takes an instruction record from the pool; freeUop returns one
// once nothing can reference it (retired, or squashed and out of flight).
func (p *Pipeline) newUop() *uop {
	if n := len(p.uopPool); n > 0 {
		u := p.uopPool[n-1]
		p.uopPool = p.uopPool[:n-1]
		*u = uop{}
		return u
	}
	return &uop{}
}

func (p *Pipeline) freeUop(u *uop) {
	if u.pooled {
		panic("pipeline: uop freed twice")
	}
	u.pooled = true
	p.uopPool = append(p.uopPool, u)
}

// ProtoTID returns the protocol thread's context index (-1 if none).
func (p *Pipeline) ProtoTID() int {
	if !p.cfg.HasProtocol {
		return -1
	}
	return p.cfg.AppThreads
}

// SetSource installs an application thread's instruction source.
func (p *Pipeline) SetSource(tid int, src InstrSource) {
	if tid == p.ProtoTID() {
		panic("pipeline: protocol thread source is the handler dispatch unit")
	}
	p.extInput() // a fresh stream can make an idle thread fetchable
	p.threads[tid].source = src
}

// Source returns the instruction source installed for a hardware context
// (nil before attachment; the snapshot layer uses it to save stream
// positions alongside the pipeline state).
func (p *Pipeline) Source(tid int) InstrSource { return p.threads[tid].source }

// Backend returns the SMTp protocol backend for the memory controller.
func (p *Pipeline) Backend() *ProtoBackend {
	if p.proto == nil {
		panic("pipeline: not an SMTp core")
	}
	return &ProtoBackend{p: p}
}

// SyncHorizon returns how many upcoming cycles (capped at limit) are
// provably free of state-changing operations on the machine-global sync
// manager by any thread of this core — the window length for which the
// shard coordinator may run the core concurrently with other shards
// (DESIGN.md §13). Per application thread (protocol threads never
// synchronize):
//
//   - a fetched-but-unpolled SyncWait is bounded by its ROB position.
//     The first poll — which registers arrival, a global mutation —
//     happens only at ROB head, and a real SyncWait is never squashed
//     (wrong-path fetch synthesizes plain ALU dummies only), so it must
//     wait for every older uop to retire. If the wait has renamed into
//     the ROB it is the youngest entry (fetch blocks behind it): with
//     idx older entries ahead and at most CommitWidth retires per cycle
//     — the poll may land in the same cycle as the last retire — the
//     first poll is ≥ now + ceil(idx/CommitWidth), so
//     ceil(idx/CommitWidth) − 1 cycles are safe. If the wait is still in
//     the front end (decode/rename queues), rename needs a cycle to
//     enter it into the ROB and commit precedes rename within a Tick,
//     so the poll is ≥ now + 2 and additionally behind all robCount
//     current (older) entries: max(1, ceil(robCount/CommitWidth) − 1)
//     cycles are safe;
//   - a thread parked on an already-polled wait that still polls false
//     contributes nothing: the probe is one of the pure re-polls, and a
//     wait that is false when the coordinator checks every core stays
//     false for the whole window, because unblocking requires a sync
//     mutation somewhere and a window admitted by this predicate has none;
//   - otherwise the thread's next SyncWait lies d stream instructions
//     ahead (a parked thread whose wait now polls true resumes mid-window
//     and is treated exactly like a running one). Fetch supplies at most
//     FetchWidth instructions per cycle, so the wait cannot be fetched
//     before f = now + ceil((d+1)/FetchWidth); it decodes at f+1, renames
//     into the ROB at f+2, and — commit preceding rename within a Tick —
//     polls no earlier than f+3, so ceil((d+1)/FetchWidth) + 2 cycles are
//     safe.
//
// A source that cannot report its sync distance yields horizon 0
// (conservatively unsafe).
//
// The ROB-position bound alone collapses to lockstep whenever the head uop
// stalls: a load parked on an MSHR holds idx/CommitWidth at zero for the
// whole miss latency even though the poll is hundreds of cycles away. Two
// sharpenings recover that slack, both lower bounds on the head's earliest
// retirement (commit precedes writeback within a Tick, so a uop completing
// at doneAt retires no earlier than doneAt+1):
//
//   - an issued in-flight head with a known completion time pushes the
//     first poll past doneAt, so doneAt − now cycles are safe;
//   - a head load parked on a remote-home application miss completes only
//     through DeliverRefill, which a network message delivered to this
//     node must trigger. On a sharded machine every such message is
//     staged and replayed at a sync point, so its delivery time is known
//     to refillDue before it can fire (§13 invariant 1: deliveries
//     scheduled at a window's own edge land strictly beyond it). If the
//     earliest delivery ever hinted is still in the future, the poll
//     cannot precede it; if none has ever been scheduled, no poll can
//     land inside any admissible window at all and the thread is
//     unconstrained. A hint in the past means a delivery already fired
//     and its handler may be mid-flight — only then does the thread
//     fall back to the lockstep-tight ROB bound.
func (p *Pipeline) SyncHorizon(limit sim.Cycle) sim.Cycle {
	h := limit
	now := p.eng.Now()
	fw := sim.Cycle(p.cfg.FetchWidth)
	cw := sim.Cycle(p.cfg.CommitWidth)
	for i := 0; i < p.cfg.AppThreads && h > 0; i++ {
		t := p.threads[i]
		if t.fetchBlockedSyn {
			if !t.synPolled {
				var safe sim.Cycle
				if u := t.robTail(); u != nil && u.in.Op == isa.OpSyncWait {
					// In the ROB, youngest entry; robCount-1 older uops
					// must retire first.
					idx := sim.Cycle(t.robCount - 1)
					safe = (idx + cw - 1) / cw
					if safe > 0 {
						safe--
					}
					if hd := t.robPeek(); hd != nil && hd != u {
						if hd.waitingMem {
							// Whatever completes the head load must go
							// through loadDone, which lands at now+1 at
							// the earliest; commit precedes writeback, so
							// the head retires — and the wait first polls
							// — no earlier than now+2. Two cycles are
							// always safe while the head is parked on an
							// MSHR, even mid-completion.
							if safe < 2 {
								safe = 2
							}
							switch due, st := p.refillBound(hd.in.Addr); st {
							case refillNone:
								continue // nothing scheduled: unconstrained
							case refillPending:
								if s := due - now; s > safe {
									safe = s
								}
							}
						} else if hd.issued && hd.doneAt > now {
							if s := hd.doneAt - now; s > safe {
								safe = s
							}
						}
					}
				} else {
					// Still in the front end: ≥ 2 cycles to reach a
					// commit-stage poll, behind robCount older entries.
					safe = (sim.Cycle(t.robCount) + cw - 1) / cw
					if safe > 0 {
						safe--
					}
					if safe < 1 {
						safe = 1
					}
				}
				if safe < h {
					h = safe
				}
				continue
			}
			if u := t.robPeek(); u != nil && u.in.Op == isa.OpSyncWait && u.polled &&
				!p.sync.SyncPoll(t.id, u.in.SyncTok) {
				continue // parked for the whole window
			}
		}
		if t.source == nil || t.source.Done() {
			continue
		}
		sd, ok := t.source.(SyncDistancer)
		if !ok {
			return 0
		}
		d := sd.SyncDistance()
		if d < 0 {
			continue
		}
		if safe := (sim.Cycle(d)+fw)/fw + 2; safe < h {
			h = safe
		}
	}
	return h
}

// AppDone reports whether every application thread has drained completely.
func (p *Pipeline) AppDone() bool {
	for i := 0; i < p.cfg.AppThreads; i++ {
		t := p.threads[i]
		if t.source == nil {
			return false
		}
		if !t.source.Done() || t.robCount != 0 || t.frontCount != 0 || t.fetchBlockedICM {
			return false
		}
	}
	// All stores must have drained too.
	return len(p.storeBuf) == 0
}

// Tick advances the core one cycle. Stages run in reverse order so results
// flow with single-cycle latency between adjacent stages.
func (p *Pipeline) Tick(now sim.Cycle) {
	p.Cycles++
	p.active = false
	p.wake = false
	p.commit(now)
	p.writeback(now)
	p.issue(now)
	p.drainStoreBuffer(now)
	p.rename(now)
	p.decode(now)
	p.fetch(now)
	p.sampleStats(now, 1)
}

// Wake marks external input: anything that mutates pipeline-visible state
// from outside Tick (refill/NAK/ack deliveries, protocol handler dispatch,
// sync barrier or lock releases, source installation) must call it so the
// core is re-examined on its next tick instead of being skipped over.
func (p *Pipeline) Wake() { p.extInput() }

// BindLazy installs the engine's lazy-tick handle for this core (see
// sim.MakeLazy). Must be called before the run starts.
func (p *Pipeline) BindLazy(h *sim.TickHandle) { p.lazyH = h }

// extInput is the single funnel for externally-driven state change: it
// settles any lazily-deferred idle ticks against the still-untouched state,
// then latches the wake bit so the next tick runs live. Every mutation of
// core state from outside Tick must pass through here BEFORE touching
// anything, or the lazy kernel would reconstruct the deferred ticks from
// post-input state.
func (p *Pipeline) extInput() {
	if p.lazyH != nil {
		p.lazyH.Settle()
	}
	p.wake = true
}

// SetOwner records the owning node's id; it is stamped into every event
// descriptor the core schedules so the machine can route the event back.
func (p *Pipeline) SetOwner(o int32) { p.owner = o }

// SetRemoteHome installs the machine's home-directory predicate: it reports
// whether an application-data address is homed on a node other than this
// one. Left nil (serial machines, unit tests) SyncHorizon never consults
// refill hints — strictly conservative.
func (p *Pipeline) SetRemoteHome(fn func(addr uint64) bool) { p.remoteHome = fn }

// RefillHint records that a network delivery for addr's line is scheduled
// to arrive at this node at `at`. The sharded coordinator's replay observer
// calls it — with all shards parked, or from the partition that owns this
// shard — for every message it schedules toward this node. The map keeps
// the minimum hint over the MSHR entry's lifetime: once any delivery for
// the line has been scheduled, a later replay must never stretch the bound
// past it (the earlier delivery may have fired and left a completion chain
// running on local events that no future hint can see).
func (p *Pipeline) RefillHint(addr uint64, at sim.Cycle) {
	line := p.l2.LineAddr(addr)
	e := p.mshr.Find(line)
	if e == nil || e.Class != cache.ClassApp {
		return
	}
	if cur, ok := p.refillDue[line]; ok && cur <= at {
		return
	}
	p.refillDue[line] = at
}

// refillStatus classifies what SyncHorizon may conclude from refill hints
// about a head load parked on an MSHR.
type refillStatus uint8

const (
	// refillUnknown: no usable information (local home, protocol-class
	// entry, hint already in the past, or no remoteHome predicate). The
	// caller keeps its conservative ROB-position bound.
	refillUnknown refillStatus = iota
	// refillPending: the earliest delivery ever scheduled for the line is
	// still in the future; no poll can precede it.
	refillPending
	// refillNone: the miss qualifies (remote-home, application-class) and
	// no delivery has ever been scheduled — completion cannot land inside
	// any admissible window, so the thread is unconstrained.
	refillNone
)

func (p *Pipeline) refillBound(addr uint64) (sim.Cycle, refillStatus) {
	if p.remoteHome == nil || !p.remoteHome(addr) {
		return 0, refillUnknown
	}
	line := p.l2.LineAddr(addr)
	e := p.mshr.Find(line)
	if e == nil || e.Class != cache.ClassApp {
		return 0, refillUnknown
	}
	due, ok := p.refillDue[line]
	if !ok {
		return 0, refillNone
	}
	if due <= p.eng.Now() {
		return 0, refillUnknown // delivery fired; completion may be local now
	}
	return due, refillPending
}

// NextWork implements sim.Quiescer. The core is busy whenever its last
// tick did real work or external input has arrived since; otherwise its
// only self-scheduled work is timer-driven — in-flight executions
// completing (doneAt) and per-thread fetch stalls expiring — and the
// earliest such timer bounds the skip. Everything else that could unblock
// the core arrives via scheduled events or Wake, which the engine and the
// senders account for.
func (p *Pipeline) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	if p.active || p.wake {
		return 0, false
	}
	next := sim.NoWork
	for _, u := range p.inflight {
		if u.doneAt < next {
			next = u.doneAt
		}
	}
	for _, t := range p.threads {
		// >= now, not > now: the lazy kernel consults NextWork at the
		// core's own tick slot, where a stall expiring this very cycle
		// (the thread fetches again now) must read as present work.
		if t.fetchStallUntil >= now && t.fetchStallUntil < next {
			next = t.fetchStallUntil
		}
	}
	return next, true
}

// Skipped implements sim.SkipAware: it applies the per-cycle deltas of n
// elided idle ticks exactly as n real ticks on the frozen state would
// have. An idle tick still (a) counts a cycle, (b) advances the
// round-robin graduation pointer, (c) samples a switch stall when the
// protocol thread's OpSwitch head is blocked on an empty dispatch queue,
// (d) re-probes every fetchable thread — a wrong-path thread synthesizes
// and discards one dummy per cycle, an application thread re-translates
// its next PC in the ITLB (a guaranteed hit, or the tick would have been
// active) — and (e) samples the per-thread stall and protocol-occupancy
// statistics. Candidates are visited in fetch's ICOUNT order so ITLB
// recency updates interleave exactly as the reference engine's would.
func (p *Pipeline) Skipped(n uint64, last sim.Cycle) {
	p.Cycles += n
	nctx := len(p.threads)
	p.commitRR = (p.commitRR + int(n%uint64(nctx))) % nctx
	now := last // the last elided cycle; any cycle in the window answers alike
	if p.proto != nil && p.proto.qlen <= 1 {
		if u := p.threads[p.ProtoTID()].robPeek(); u != nil && u.in.Op == isa.OpSwitch {
			p.proto.SwitchStallCycles += n
		}
	}
	cands := p.fetchCands[:0]
	for _, t := range p.threads {
		if p.fetchable(t, now) {
			cands = append(cands, t)
		}
	}
	p.fetchCands = cands[:0]
	sortByICount(cands)
	for _, t := range cands {
		if t.wrongPath {
			t.wrongSeq += n
			t.wrongPC += 4 * n
			continue
		}
		if t.isProtocol || p.itlb == nil {
			continue
		}
		p.itlb.skipHits(t.source.Peek().PC, n)
	}
	p.sampleStats(now, n)
}
