package pipeline

import (
	"fmt"
	"sort"

	"smtpsim/internal/bpred"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
	"smtpsim/internal/stats"
)

// Event-descriptor kinds claimed by the pipeline (range 1..31; the network's
// delivery kind is 32 and memory-controller kinds start at 64, DESIGN.md §14).
// Each kind's arguments identify the event completely: Fire runs it from
// the descriptor plus the core's state, live and after a restore alike.
const (
	// KSendPIRetry retries a processor-interface enqueue that found the
	// local queue full. Args: message type, line.
	KSendPIRetry uint8 = 1
	// KIFill completes an instruction fill that hit in the L2 (or its
	// bypass). Args: tid, L1I line.
	KIFill uint8 = 2
	// KIFillL2 completes an instruction fill that missed the L2.
	// Args: tid, L1I line, L2 line.
	KIFillL2 uint8 = 3
	// KProtoRetry retries a protocol-thread L2 miss that found the reserved
	// MSHR entry busy. Args: flags (protoHasUop|protoIsStore), uop seq
	// (when protoHasUop), line, addr.
	KProtoRetry uint8 = 4
	// KProtoDone completes a protocol-thread L2 miss. Args: line, addr.
	KProtoDone uint8 = 5
	// KNakRetry re-issues a NAKed transaction after backoff. Args: line,
	// MSHR allocation generation.
	KNakRetry uint8 = 6
	// KStorePoll polls a draining protocol store for its line's arrival.
	// Args: uop seq, line.
	KStorePoll uint8 = 7
)

// KProtoRetry flag bits.
const (
	protoHasUop  = 1 << 0
	protoIsStore = 1 << 1
)

func (p *Pipeline) desc2(kind uint8, a0, a1 uint64) sim.Desc {
	return sim.Desc{Owner: p.owner, Kind: kind, Args: [6]uint64{a0, a1}}
}

func (p *Pipeline) sendPIDesc(t coherence.MsgType, line uint64) sim.Desc {
	return p.desc2(KSendPIRetry, uint64(t), line)
}

func (p *Pipeline) iFillDesc(tid int, line uint64) sim.Desc {
	return p.desc2(KIFill, uint64(tid), line)
}

func (p *Pipeline) iFillL2Desc(tid int, line, l2line uint64) sim.Desc {
	d := p.desc2(KIFillL2, uint64(tid), line)
	d.Args[2] = l2line
	return d
}

func (p *Pipeline) protoRetryDesc(u *uop, line, addr uint64, isStore bool) sim.Desc {
	var flags, seq uint64
	if u != nil {
		flags |= protoHasUop
		seq = u.seq
	}
	if isStore {
		flags |= protoIsStore
	}
	d := p.desc2(KProtoRetry, flags, seq)
	d.Args[2] = line
	d.Args[3] = addr
	return d
}

func (p *Pipeline) protoDoneDesc(line, addr uint64) sim.Desc {
	return p.desc2(KProtoDone, line, addr)
}

func (p *Pipeline) nakRetryDesc(line, gen uint64) sim.Desc {
	return p.desc2(KNakRetry, line, gen)
}

func (p *Pipeline) storePollDesc(uopSeq, line uint64) sim.Desc {
	return p.desc2(KStorePoll, uopSeq, line)
}

// Fire runs one of the core's scheduled events: its own retries, backoffs,
// fills and drain polls, and the completions the memory system schedules
// on its behalf (ProtocolMiss, IMiss). Every one mutates core state from
// outside Tick, so it enters through extInput first.
func (p *Pipeline) Fire(d sim.Desc) {
	p.extInput()
	a := &d.Args
	switch d.Kind {
	case KSendPIRetry:
		p.sendPI(coherence.MsgType(a[0]), a[1])
	case KIFill:
		p.iFill(int(a[0]), a[1])
	case KIFillL2:
		p.iFillL2(int(a[0]), a[1], a[2])
	case KProtoRetry:
		u, ok := p.retryUop(d)
		if !ok {
			panic(fmt.Sprintf("pipeline: proto retry references unknown uop seq %d", a[1]))
		}
		p.protoL2Miss(u, a[2], a[3], a[0]&protoIsStore != 0)
	case KProtoDone:
		p.protoMissDone(a[0], a[1])
	case KNakRetry:
		p.nakRetry(a[0], a[1])
	case KStorePoll:
		p.storePoll(a[0], a[1])
	default:
		panic(fmt.Sprintf("pipeline: unknown event kind %d", d.Kind))
	}
}

// retryUop resolves the uop a KProtoRetry descriptor names by sequence
// number (nil when it names none). The uop is a protocol-thread load
// waiting out the retry timer: issued but not done, so it sits in the
// protocol thread's active list, and it is never squashed (only wrong-path
// dummies are).
func (p *Pipeline) retryUop(d sim.Desc) (*uop, bool) {
	if d.Args[0]&protoHasUop == 0 {
		return nil, true
	}
	if p.proto == nil {
		return nil, false
	}
	t := p.threads[p.ProtoTID()]
	for i := 0; i < t.robCount; i++ {
		if u := t.rob[(t.robHead+i)%len(t.rob)]; u.seq == d.Args[1] {
			return u, true
		}
	}
	return nil, false
}

// CheckEvent validates a snapshotted pipeline descriptor against the
// restored core before restore pushes it, so a corrupt one fails the
// restore instead of panicking when it fires.
func (p *Pipeline) CheckEvent(d sim.Desc) error {
	switch d.Kind {
	case KNakRetry, KStorePoll:
		return nil
	case KSendPIRetry:
		if t := d.Args[0]; t > 0xff || !coherence.MsgType(t).IsLocalPI() {
			return fmt.Errorf("pipeline: processor-interface retry of message type %d, not a PI request", t)
		}
		return nil
	case KProtoDone:
		// protoMissDone completes the protocol-class entry for its line.
		if e := p.mshr.Find(d.Args[0]); e == nil || e.Class != cache.ClassProtocol {
			return fmt.Errorf("pipeline: protocol miss completion for line %#x with no protocol miss outstanding", d.Args[0])
		}
		return nil
	case KIFill, KIFillL2:
		if tid := d.Args[0]; tid >= uint64(len(p.threads)) {
			return fmt.Errorf("pipeline: instruction fill for context %d, core has %d", tid, len(p.threads))
		}
		return nil
	case KProtoRetry:
		if _, ok := p.retryUop(d); !ok {
			return fmt.Errorf("pipeline: proto retry references unknown uop seq %d", d.Args[1])
		}
		return nil
	}
	return fmt.Errorf("pipeline: unknown event kind %d", d.Kind)
}

// collectUops gathers every live uop reachable from the core's containers,
// in a fixed walk order, deduplicated by sequence number (unique per uop).
// Every live uop sits in the active list, a front-end queue or the
// in-flight list: committed stores live on as store-buffer values, and
// MSHR waiters name loads that stay in the load/store queue.
func (p *Pipeline) collectUops() []*uop {
	var out []*uop
	seen := make(map[uint64]bool)
	add := func(u *uop) {
		if u == nil || seen[u.seq] {
			return
		}
		seen[u.seq] = true
		out = append(out, u)
	}
	for _, t := range p.threads {
		for i := 0; i < t.robCount; i++ {
			add(t.rob[(t.robHead+i)%len(t.rob)])
		}
	}
	for _, u := range p.decodeQ {
		add(u)
	}
	for _, u := range p.renameQ {
		add(u)
	}
	for _, u := range p.intQ {
		add(u)
	}
	for _, u := range p.fpQ {
		add(u)
	}
	for _, u := range p.lsq {
		add(u)
	}
	for _, u := range p.inflight {
		add(u)
	}
	return out
}

func saveUop(e *snapshot.Encoder, u *uop, saveInstr func(*snapshot.Encoder, *isa.Instr)) {
	e.U64(u.seq)
	saveInstr(e, &u.in)
	e.Int(u.tid)
	e.Int(int(u.physDst))
	e.Int(int(u.oldDst))
	e.Int(int(u.physSrc1))
	e.Int(int(u.physSrc2))
	e.Int(int(u.rdySrc1))
	e.Int(int(u.rdySrc2))
	e.Int(int(u.rdyDst))
	ps := u.pred.State()
	e.Bool(ps.Taken)
	e.Int(ps.LocalIdx)
	e.Int(ps.LocalPHTIdx)
	e.Int(ps.GlobalIdx)
	e.Int(ps.ChoiceIdx)
	e.Bool(ps.UsedGlobal)
	e.Bool(u.predTaken)
	e.Bool(u.mispred)
	e.Int(u.brCkpt)
	e.Bool(u.counted)
	e.U8(uint8(u.stage))
	e.Bool(u.inIQ)
	e.Bool(u.inLSQ)
	e.Bool(u.issued)
	e.Bool(u.executed)
	e.Bool(u.squashed)
	e.U64(uint64(u.doneAt))
	e.Bool(u.waitingMem)
	e.Bool(u.polled)
	e.Bool(u.wrongPath)
}

func (p *Pipeline) loadUop(d *snapshot.Decoder, loadInstr func(*snapshot.Decoder) isa.Instr) *uop {
	u := p.newUop()
	u.seq = d.U64()
	u.in = loadInstr(d)
	u.tid = d.Int()
	u.physDst = int16(d.Int())
	u.oldDst = int16(d.Int())
	u.physSrc1 = int16(d.Int())
	u.physSrc2 = int16(d.Int())
	u.rdySrc1 = int16(d.Int())
	u.rdySrc2 = int16(d.Int())
	u.rdyDst = int16(d.Int())
	var ps bpred.PredState
	ps.Taken = d.Bool()
	ps.LocalIdx = d.Int()
	ps.LocalPHTIdx = d.Int()
	ps.GlobalIdx = d.Int()
	ps.ChoiceIdx = d.Int()
	ps.UsedGlobal = d.Bool()
	u.pred = bpred.PredictionFromState(ps)
	u.predTaken = d.Bool()
	u.mispred = d.Bool()
	u.brCkpt = d.Int()
	u.counted = d.Bool()
	u.stage = stage(d.U8())
	u.inIQ = d.Bool()
	u.inLSQ = d.Bool()
	u.issued = d.Bool()
	u.executed = d.Bool()
	u.squashed = d.Bool()
	u.doneAt = sim.Cycle(d.U64())
	u.waitingMem = d.Bool()
	u.polled = d.Bool()
	u.wrongPath = d.Bool()
	return u
}

// uopRef resolves a saved uop reference; 0 encodes nil.
func (p *Pipeline) uopRef(d *snapshot.Decoder, seq uint64) *uop {
	if seq == 0 {
		return nil
	}
	u := p.restoreUops[seq]
	if u == nil {
		d.Fail("pipeline: unresolved uop reference %d", seq)
	}
	return u
}

func saveUopList(e *snapshot.Encoder, q []*uop) {
	e.Int(len(q))
	for _, u := range q {
		e.U64(u.seq)
	}
}

func (p *Pipeline) loadUopList(d *snapshot.Decoder, q []*uop) []*uop {
	q = q[:0]
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		q = append(q, p.uopRef(d, d.U64()))
	}
	return q
}

func (p *Pipeline) saveThread(e *snapshot.Encoder, t *thread) {
	e.Mark("thr")
	e.U64(uint64(t.fetchStallUntil))
	e.Bool(t.fetchBlockedICM)
	e.Bool(t.fetchBlockedSyn)
	e.Bool(t.synPolled)
	e.U64(t.streamLine)
	e.Bool(t.wrongPath)
	e.U64(t.wrongPC)
	e.U64(t.wrongSeq)
	for _, m := range t.mapTable {
		e.Int(int(m))
	}
	t.ras.SaveState(e)
	// The active list is saved oldest-first and restored flattened
	// (robHead 0): the ring phase is unobservable.
	e.Int(t.robCount)
	for i := 0; i < t.robCount; i++ {
		e.U64(t.rob[(t.robHead+i)%len(t.rob)].seq)
	}
	e.Int(t.frontCount)
}

func (p *Pipeline) loadThread(d *snapshot.Decoder, t *thread) {
	d.Expect("thr")
	t.fetchStallUntil = sim.Cycle(d.U64())
	t.fetchBlockedICM = d.Bool()
	t.fetchBlockedSyn = d.Bool()
	t.synPolled = d.Bool()
	t.streamLine = d.U64()
	t.wrongPath = d.Bool()
	t.wrongPC = d.U64()
	t.wrongSeq = d.U64()
	for i := range t.mapTable {
		t.mapTable[i] = int16(d.Int())
	}
	t.ras.LoadState(d)
	for i := range t.rob {
		t.rob[i] = nil
	}
	t.robHead = 0
	t.robCount = 0
	n := d.Int()
	if d.Err() == nil && n > len(t.rob) {
		d.Fail("active list holds %d uops, capacity %d", n, len(t.rob))
		return
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		t.rob[i] = p.uopRef(d, d.U64())
		t.robCount++
	}
	t.frontCount = d.Int()
}

func (t *tlb) saveState(e *snapshot.Encoder) {
	e.Mark("tlb")
	e.U64s(t.pages)
	e.Bools(t.valid)
	e.U64s(t.stamp)
	e.U64(t.clock)
	e.Int(t.last)
	e.U64(t.Hits)
	e.U64(t.Misses)
}

func (t *tlb) loadState(d *snapshot.Decoder) {
	d.Expect("tlb")
	pages := d.U64s()
	valid := d.Bools()
	stamp := d.U64s()
	if d.Err() != nil {
		return
	}
	if len(pages) != len(t.pages) || len(valid) != len(t.valid) || len(stamp) != len(t.stamp) {
		d.Fail("tlb has %d entries, want %d", len(pages), len(t.pages))
		return
	}
	// free is derived: the valid entries must form the suffix fills build.
	free := len(valid)
	for free > 0 && valid[free-1] {
		free--
	}
	for i := 0; i < free; i++ {
		if valid[i] {
			d.Fail("tlb valid entries are not a suffix (entry %d valid below invalid entry %d)", i, free-1)
			return
		}
	}
	copy(t.pages, pages)
	copy(t.valid, valid)
	copy(t.stamp, stamp)
	t.free = free
	t.clock = d.U64()
	last := d.Int()
	if d.Err() == nil && (last < 0 || last >= len(t.pages)) {
		d.Fail("tlb last entry %d out of range 0..%d", last, len(t.pages)-1)
		return
	}
	t.last = last
	t.Hits = d.U64()
	t.Misses = d.U64()
}

func (f *freeList) saveState(e *snapshot.Encoder) {
	// Exact stack order: alloc pops the tail, so the order registers return
	// to the list is architecturally visible in future assignments.
	e.Int(len(f.free))
	for _, r := range f.free {
		e.Int(int(r))
	}
}

func (f *freeList) loadState(d *snapshot.Decoder) {
	f.free = f.free[:0]
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		f.free = append(f.free, int16(d.Int()))
	}
}

func savePeak(e *snapshot.Encoder, p *stats.Peak) {
	max, samples, sum := p.State()
	e.Int(max)
	e.U64(samples)
	e.U64(sum)
}

func loadPeak(d *snapshot.Decoder, p *stats.Peak) {
	max := d.Int()
	samples := d.U64()
	sum := d.U64()
	p.SetState(max, samples, sum)
}

// SaveState serializes the core's complete microarchitectural state.
// saveInstr encodes one instruction including the protocol effect its
// handle names (the owner passes its memory controller's SaveInstr; the
// pipeline stays effect-agnostic). Scratch buffers and free pools are not state: they restore
// empty.
func (p *Pipeline) SaveState(e *snapshot.Encoder, saveInstr func(*snapshot.Encoder, *isa.Instr)) {
	e.Mark("pipe")

	// Live uops first: every later section references them by seq.
	uops := p.collectUops()
	e.Int(len(uops))
	for _, u := range uops {
		saveUop(e, u, saveInstr)
	}

	e.Int(len(p.threads))
	for _, t := range p.threads {
		p.saveThread(e, t)
	}

	saveUopList(e, p.decodeQ)
	saveUopList(e, p.renameQ)
	saveUopList(e, p.intQ)
	saveUopList(e, p.fpQ)
	saveUopList(e, p.lsq)
	saveUopList(e, p.inflight)

	e.Int(len(p.storeBuf))
	for _, s := range p.storeBuf {
		e.U64(s.seq)
		e.U64(s.addr)
		e.Int(s.tid)
		e.Bool(s.pending)
	}
	p.mshr.SaveState(e)

	p.l1i.SaveState(e)
	p.l1d.SaveState(e)
	p.l2.SaveState(e)
	e.Bool(p.ibyp != nil)
	if p.ibyp != nil {
		p.ibyp.SaveState(e)
		p.dbyp.SaveState(e)
		p.l2byp.SaveState(e)
	}
	e.Bool(p.itlb != nil)
	if p.itlb != nil {
		p.itlb.saveState(e)
		p.dtlb.saveState(e)
	}
	p.pred.SaveState(e)
	p.btb.SaveState(e)

	p.intFree.saveState(e)
	p.fpFree.saveState(e)
	e.Bools(p.ready)
	e.Int(p.brStackUsed)
	e.Int(p.divBusy)

	wb := make([]uint64, 0, len(p.wbPending))
	for line, v := range p.wbPending {
		if v {
			wb = append(wb, line)
		}
	}
	sort.Slice(wb, func(i, j int) bool { return wb[i] < wb[j] })
	e.U64s(wb)
	acks := make([]uint64, 0, len(p.acksWanted))
	for line := range p.acksWanted {
		acks = append(acks, line)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	e.Int(len(acks))
	for _, line := range acks {
		e.U64(line)
		e.Int(p.acksWanted[line])
	}
	// Refill hints are planning state only, but a restored sharded run must
	// plan identical windows: without them, SyncHorizon would call an
	// already-scheduled delivery "unscheduled" and stretch a window across
	// the poll it enables.
	due := make([]uint64, 0, len(p.refillDue))
	for line := range p.refillDue {
		due = append(due, line)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	e.Int(len(due))
	for _, line := range due {
		e.U64(line)
		e.U64(uint64(p.refillDue[line]))
	}

	// Branch stack: per-slot, preserving slot indices (uops hold brCkpt
	// indices into the array).
	e.Bool(p.ckptsArr != nil)
	if p.ckptsArr != nil {
		e.Int(len(p.ckptsArr))
		for i := range p.ckptsArr {
			c := &p.ckptsArr[i]
			e.Bool(c.valid)
			if !c.valid {
				continue
			}
			e.Int(c.tid)
			for _, m := range c.maps {
				e.Int(int(m))
			}
			cs := c.ras.State()
			e.Int(cs.TOS)
			e.U64(cs.TopVal)
		}
	}

	e.Bool(p.proto != nil)
	if p.proto != nil {
		ps := p.proto
		e.Int(ps.qlen)
		for i := 0; i < ps.qlen; i++ {
			// Save only the unfetched tail: entries before fetchIdx were
			// already copied into uops (whose saved instructions carry the
			// effects), while fetchIdx itself never rewinds.
			r := &ps.queue[i]
			e.Int(len(r.trace))
			e.Int(r.fetchIdx)
			for j := r.fetchIdx; j < len(r.trace); j++ {
				saveInstr(e, &r.trace[j])
			}
		}
		e.Bool(ps.lookAhead)
		e.U64(ps.ldctxtID)
		e.U64(ps.HandlersDispatched)
		e.U64(ps.LookAheadStarts)
		e.U64(ps.SwitchStallCycles)
	}

	e.Int(p.commitRR)
	e.U64(p.seq)
	e.Bool(p.active)
	e.Bool(p.wake)

	e.Mark("pstat")
	e.U64(p.Cycles)
	for i := range p.threads {
		e.U64(p.Retired[i])
		e.U64(p.MemStallCycles[i])
		e.U64(p.BrResolved[i])
		e.U64(p.BrMispredicted[i])
		e.U64(p.SquashedUops[i])
		e.U64(p.SquashCycles[i])
	}
	e.U64(p.ProtoActiveCyc)
	savePeak(e, &p.ProtoOccBrStack)
	savePeak(e, &p.ProtoOccIntReg)
	savePeak(e, &p.ProtoOccIQ)
	savePeak(e, &p.ProtoOccLSQ)
	e.U64(p.L1DMissed)
	e.U64(p.L2Missed)
	e.U64(p.BypassFills)
	e.U64(p.UpgradeReqs)
	e.U64(p.Prefetches)
	e.U64(p.ProtoRetrySpins)
	e.U64(p.SendPISpins)
	e.U64(p.StorePollSpins)
}

// LoadState restores state saved by SaveState into a core built from the
// identical Config. Restored uops are indexed by sequence number in
// restoreUops while the method's own back-references resolve against them.
func (p *Pipeline) LoadState(d *snapshot.Decoder, loadInstr func(*snapshot.Decoder) isa.Instr) {
	d.Expect("pipe")

	p.restoreUops = make(map[uint64]*uop)
	defer func() { p.restoreUops = nil }()
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		u := p.loadUop(d, loadInstr)
		p.restoreUops[u.seq] = u
	}

	if n := d.Int(); d.Err() == nil && n != len(p.threads) {
		d.Fail("core has %d contexts, want %d", n, len(p.threads))
		return
	}
	for _, t := range p.threads {
		p.loadThread(d, t)
	}

	p.decodeQ = p.loadUopList(d, p.decodeQ)
	p.renameQ = p.loadUopList(d, p.renameQ)
	p.intQ = p.loadUopList(d, p.intQ)
	p.fpQ = p.loadUopList(d, p.fpQ)
	p.lsq = p.loadUopList(d, p.lsq)
	p.inflight = p.loadUopList(d, p.inflight)

	p.storeBuf = p.storeBuf[:0]
	n := d.Int()
	if d.Err() == nil && (n < 0 || n > p.cfg.StoreBuffer) {
		d.Fail("store buffer holds %d stores, capacity %d", n, p.cfg.StoreBuffer)
		return
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		s := storeEntry{seq: d.U64(), addr: d.U64(), tid: d.Int(), pending: d.Bool()}
		if d.Err() == nil && (s.tid < 0 || s.tid >= len(p.threads)) {
			d.Fail("store-buffer entry for context %d, core has %d", s.tid, len(p.threads))
			return
		}
		p.storeBuf = append(p.storeBuf, s)
	}
	p.mshr.LoadState(d)
	p.mshr.Entries(func(m *cache.MSHREntry) {
		for _, seq := range m.Waiters {
			// A protocol miss completes only loads (protoMissDone).
			if p.queuedLoad(seq) == nil && (m.Class == cache.ClassProtocol || p.storeIndex(seq) < 0) {
				d.Fail("MSHR waiter %d for line %#x names neither a queued load nor a buffered store", seq, m.LineAddr)
			}
		}
	})

	p.l1i.LoadState(d)
	p.l1d.LoadState(d)
	p.l2.LoadState(d)
	if has := d.Bool(); has != (p.ibyp != nil) {
		d.Fail("bypass buffers present=%v, want %v", has, p.ibyp != nil)
		return
	} else if has {
		p.ibyp.LoadState(d)
		p.dbyp.LoadState(d)
		p.l2byp.LoadState(d)
	}
	if has := d.Bool(); has != (p.itlb != nil) {
		d.Fail("TLBs present=%v, want %v", has, p.itlb != nil)
		return
	} else if has {
		p.itlb.loadState(d)
		p.dtlb.loadState(d)
	}
	p.pred.LoadState(d)
	p.btb.LoadState(d)

	p.intFree.loadState(d)
	p.fpFree.loadState(d)
	ready := d.Bools()
	if d.Err() == nil && len(ready) != len(p.ready) {
		d.Fail("ready array has %d bits, want %d", len(ready), len(p.ready))
		return
	}
	copy(p.ready, ready)
	p.rebuildWake()
	p.brStackUsed = d.Int()
	p.divBusy = d.Int()

	for k := range p.wbPending {
		delete(p.wbPending, k)
	}
	for _, line := range d.U64s() {
		p.wbPending[line] = true
	}
	for k := range p.acksWanted {
		delete(p.acksWanted, k)
	}
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		line := d.U64()
		p.acksWanted[line] = d.Int()
	}
	for k := range p.refillDue {
		delete(p.refillDue, k)
	}
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		line := d.U64()
		p.refillDue[line] = sim.Cycle(d.U64())
	}

	p.ckptsArr = nil
	if d.Bool() {
		n := d.Int()
		if d.Err() == nil && n != p.cfg.BranchStack {
			d.Fail("branch stack has %d slots, want %d", n, p.cfg.BranchStack)
			return
		}
		p.ckptsArr = make([]checkpoint, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			c := &p.ckptsArr[i]
			c.valid = d.Bool()
			if !c.valid {
				continue
			}
			c.tid = d.Int()
			for j := range c.maps {
				c.maps[j] = int16(d.Int())
			}
			var cs bpred.CkptState
			cs.TOS = d.Int()
			cs.TopVal = d.U64()
			c.ras = bpred.CheckpointFromState(cs)
		}
	}

	if has := d.Bool(); has != (p.proto != nil) {
		d.Fail("protocol context present=%v, want %v", has, p.proto != nil)
		return
	} else if has {
		ps := p.proto
		ps.queue[0] = handlerRun{}
		ps.queue[1] = handlerRun{}
		ps.qlen = d.Int()
		if d.Err() == nil && (ps.qlen < 0 || ps.qlen > len(ps.queue)) {
			d.Fail("protocol handler queue holds %d handlers, want 0..%d", ps.qlen, len(ps.queue))
			ps.qlen = 0
			return
		}
		for i := 0; i < ps.qlen && d.Err() == nil; i++ {
			n := d.Int()
			idx := d.Int()
			if d.Err() != nil || idx < 0 || idx > n || n > isa.MaxTraceLen {
				d.Fail("handler run fetchIdx %d / length %d out of range (fetchIdx <= length <= %d)", idx, n, isa.MaxTraceLen)
				return
			}
			// Already-fetched entries round trip as zero instructions; only
			// trace[fetchIdx:] is ever read again.
			trace := make([]isa.Instr, idx, n)
			for j := idx; j < n && d.Err() == nil; j++ {
				trace = append(trace, loadInstr(d))
			}
			ps.queue[i] = handlerRun{trace: trace, fetchIdx: idx}
		}
		ps.lookAhead = d.Bool()
		ps.ldctxtID = d.U64()
		ps.HandlersDispatched = d.U64()
		ps.LookAheadStarts = d.U64()
		ps.SwitchStallCycles = d.U64()
	}

	p.commitRR = d.Int()
	p.seq = d.U64()
	p.active = d.Bool()
	p.wake = d.Bool()

	d.Expect("pstat")
	p.Cycles = d.U64()
	for i := range p.threads {
		p.Retired[i] = d.U64()
		p.MemStallCycles[i] = d.U64()
		p.BrResolved[i] = d.U64()
		p.BrMispredicted[i] = d.U64()
		p.SquashedUops[i] = d.U64()
		p.SquashCycles[i] = d.U64()
	}
	p.ProtoActiveCyc = d.U64()
	loadPeak(d, &p.ProtoOccBrStack)
	loadPeak(d, &p.ProtoOccIntReg)
	loadPeak(d, &p.ProtoOccIQ)
	loadPeak(d, &p.ProtoOccLSQ)
	p.L1DMissed = d.U64()
	p.L2Missed = d.U64()
	p.BypassFills = d.U64()
	p.UpgradeReqs = d.U64()
	p.Prefetches = d.U64()
	p.ProtoRetrySpins = d.U64()
	p.SendPISpins = d.U64()
	p.StorePollSpins = d.U64()
}
