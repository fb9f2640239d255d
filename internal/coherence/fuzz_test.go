package coherence

import (
	"fmt"
	"sort"
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/directory"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
)

// The protocol fuzzer drives random processor events through the real
// handlers on mock nodes, delivering messages with random interleaving
// across point-to-point channels (but FIFO within a channel, which the
// interconnect guarantees), deferring interventions that would overtake a
// data reply, and retrying NAKs — then checks the global single-writer and
// directory-agreement invariants once the system drains.

type fuzzNode struct {
	*mockEnv
	outstanding map[uint64]bool // line -> request in flight
	wantExcl    map[uint64]bool
	parked      map[uint64][]*network.Message
	acks        map[uint64]int
	wbPending   map[uint64]bool
}

type fuzzSys struct {
	t     *testing.T
	rng   *sim.Rand
	nodes []*fuzzNode
	// chans[src][dst] is a FIFO channel; messages within one channel stay
	// ordered, channels drain in random order.
	chans map[[2]int][]*network.Message
	retry []*retryOp
	log   []string

	// fx holds the effects of the handler traces; each is fired (taken)
	// exactly once right after its handler runs.
	fx *EffectArena

	// pool, when non-nil, runs the fuzz through the pooled dispatch path:
	// every message is drawn from the pool and released at its handling
	// point, exactly as memctrl.dispatch does. Under -tags poolcheck the
	// pool poisons released messages, so any handler that re-sends or
	// retains a dead message fails loudly.
	pool  *network.Pool
	table *Table
	hctx  Ctx
	tbuf  []isa.Instr
}

type retryOp struct {
	node int
	line uint64
	excl bool
}

func newFuzzSys(t *testing.T, nodes int, seed uint64) *fuzzSys {
	s := &fuzzSys{
		t:     t,
		rng:   sim.NewRand(seed),
		chans: map[[2]int][]*network.Message{},
		fx:    NewEffectArena(),
		table: DefaultTable(),
	}
	s.hctx.Effects = s.fx
	for i := 0; i < nodes; i++ {
		s.nodes = append(s.nodes, &fuzzNode{
			mockEnv:     newMockEnv(addrmap.NodeID(i), nodes),
			outstanding: map[uint64]bool{},
			wantExcl:    map[uint64]bool{},
			parked:      map[uint64][]*network.Message{},
			acks:        map[uint64]int{},
			wbPending:   map[uint64]bool{},
		})
	}
	return s
}

func (s *fuzzSys) logf(format string, args ...interface{}) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
	if len(s.log) > 4000 {
		s.log = s.log[1:]
	}
}

func (s *fuzzSys) send(m *network.Message) {
	key := [2]int{int(m.Src), int(m.Dst)}
	s.chans[key] = append(s.chans[key], m)
}

// applyEffects fires a handler trace's effects on the issuing node.
func (s *fuzzSys) applyEffects(n *fuzzNode, effs []uint32) {
	for _, h := range effs {
		e := s.fx.Take(h)
		switch e.Kind {
		case EffSend:
			m := &e.Msg
			if s.pool != nil {
				m = s.pool.GetCopy(m)
			}
			s.send(m)
		case EffRefill:
			s.refill(n, e)
		case EffNak:
			s.nak(n, e.Line)
		case EffIAck:
			s.iack(n, e.Line)
		case EffWBAck:
			delete(n.wbPending, e.Line)
		}
	}
}

func (s *fuzzSys) refill(n *fuzzNode, e Effect) {
	if !n.outstanding[e.Line] {
		s.fail("node %d refill for line %#x without an outstanding miss", n.id, e.Line)
	}
	delete(n.outstanding, e.Line)
	delete(n.wantExcl, e.Line)
	n.l2[e.Line] = e.St
	if e.St.Writable() {
		// Model the store completing: line becomes dirty.
		n.l2[e.Line] = cache.Modified
	}
	if e.Acks != 0 {
		n.acks[e.Line] += e.Acks
		if n.acks[e.Line] == 0 {
			delete(n.acks, e.Line)
		}
	}
	s.unpark(n, e.Line)
}

func (s *fuzzSys) iack(n *fuzzNode, line uint64) {
	n.acks[line]--
	if n.acks[line] == 0 {
		delete(n.acks, line)
	}
}

func (s *fuzzSys) nak(n *fuzzNode, line uint64) {
	if !n.outstanding[line] {
		s.fail("node %d NAK for line %#x without an outstanding miss", n.id, line)
	}
	delete(n.outstanding, line)
	excl := n.wantExcl[line]
	delete(n.wantExcl, line)
	s.unpark(n, line)
	s.retry = append(s.retry, &retryOp{node: int(n.id), line: line, excl: excl})
}

func (s *fuzzSys) unpark(n *fuzzNode, line uint64) {
	if msgs := n.parked[line]; len(msgs) > 0 {
		delete(n.parked, line)
		for _, m := range msgs {
			s.handleAt(n, m)
		}
	}
}

func (s *fuzzSys) fail(format string, args ...interface{}) {
	for _, l := range s.log {
		s.t.Log(l)
	}
	s.t.Fatalf(format, args...)
}

func (s *fuzzSys) handleAt(n *fuzzNode, m *network.Message) {
	s.logf("node %d handles %v line %#x (from %d req %d aux %d)",
		n.id, MsgType(m.Type), m.Addr, m.Src, m.Requester, m.Aux)
	var tr []isa.Instr
	if s.pool != nil {
		tr = s.table.HandleInto(&s.hctx, n.mockEnv, m, s.tbuf)
		s.tbuf = tr
	} else {
		tr = Handle(n.mockEnv, s.fx, m)
	}
	var effs []uint32
	for i := range tr {
		if tr[i].Effect != 0 {
			effs = append(effs, tr[i].Effect)
		}
	}
	if s.pool != nil {
		// The message dies here, as at the end of memctrl.dispatch.
		s.pool.Put(m)
	}
	s.applyEffects(n, effs)
}

// piMsg builds a processor-interface message, from the pool when pooled.
func (s *fuzzSys) piMsg(n *fuzzNode, mt MsgType, line uint64) *network.Message {
	m := &network.Message{}
	if s.pool != nil {
		m = s.pool.Get()
	}
	m.Src, m.Dst, m.Type, m.Addr = n.id, n.id, uint8(mt), line
	return m
}

func (s *fuzzSys) deliverOne() bool {
	// Pick a random non-empty channel (sorted first: map iteration order
	// must not leak nondeterminism into the fuzz schedule).
	var keys [][2]int
	for k, q := range s.chans {
		if len(q) > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return false
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0]*64+keys[i][1] < keys[j][0]*64+keys[j][1]
	})
	k := keys[s.rng.Intn(len(keys))]
	q := s.chans[k]
	m := q[0]
	s.chans[k] = q[1:]
	dst := s.nodes[m.Dst]
	line := addrmap.LineAddr(m.Addr)
	if m.VC == network.VCIntervention && dst.outstanding[line] {
		s.logf("node %d parks %v line %#x", dst.id, MsgType(m.Type), line)
		dst.parked[line] = append(dst.parked[line], m)
		return true
	}
	s.handleAt(dst, m)
	return true
}

// issue starts a random legal processor event at node n.
func (s *fuzzSys) issue(n *fuzzNode, line uint64) {
	if n.outstanding[line] || n.wbPending[line] {
		return
	}
	st := n.l2[line]
	var mt MsgType
	excl := false
	switch {
	case st == cache.Invalid:
		if s.rng.Bool(0.5) {
			mt = MsgPIRead
		} else {
			mt = MsgPIWrite
			excl = true
		}
	case st == cache.Shared:
		if s.rng.Bool(0.5) {
			mt = MsgPIUpgrade
			excl = true
		} else {
			return // read hit
		}
	default: // Exclusive/Modified
		if s.rng.Bool(0.3) {
			// Writeback (eviction).
			dirty := n.l2[line] == cache.Modified
			delete(n.l2, line)
			if dirty {
				n.wbPending[line] = true
				mt = MsgPIWriteback
			} else {
				return // silent clean-exclusive drop
			}
		} else {
			return // hit
		}
	}
	if mt != MsgPIWriteback {
		n.outstanding[line] = true
		n.wantExcl[line] = excl
	}
	s.logf("node %d issues %v line %#x (l2 was %v)", n.id, mt, line, st)
	s.handleAt(n, s.piMsg(n, mt, line))
}

func (s *fuzzSys) drainRetries() {
	// Process only the retries present now: a retry that NAKs again (its
	// blocking condition is an undelivered message) must wait for message
	// delivery, or this would spin forever.
	batch := s.retry
	s.retry = nil
	for len(batch) > 0 {
		r := batch[0]
		batch = batch[1:]
		n := s.nodes[r.node]
		if n.outstanding[r.line] {
			continue
		}
		st := n.l2[r.line]
		var mt MsgType
		switch {
		case !r.excl:
			if st != cache.Invalid {
				continue // a refill raced in; done
			}
			mt = MsgPIRead
		case st == cache.Shared:
			mt = MsgPIUpgrade
		case st == cache.Invalid:
			mt = MsgPIWrite
		default:
			continue // already writable
		}
		n.outstanding[r.line] = true
		n.wantExcl[r.line] = r.excl
		s.logf("node %d retries %v line %#x", n.id, mt, r.line)
		s.handleAt(n, s.piMsg(n, mt, r.line))
	}
}

func (s *fuzzSys) drain() {
	for i := 0; i < 200000; i++ {
		progressed := s.deliverOne()
		if !progressed {
			if len(s.retry) == 0 {
				return
			}
			s.drainRetries()
			continue
		}
		if s.rng.Bool(0.2) {
			s.drainRetries()
		}
	}
	s.fail("system did not drain")
}

func (s *fuzzSys) checkInvariants(lines []uint64) {
	for _, line := range lines {
		home := s.nodes[s.nodes[0].amap.HomeOf(line)]
		e := home.dir.Load(line)
		if e.State.Busy() {
			s.fail("line %#x: busy (%+v) after drain", line, e)
		}
		writers := 0
		for _, n := range s.nodes {
			st := n.l2[line]
			if st.Writable() {
				writers++
				if e.State != directory.Dirty || e.Owner != n.id {
					s.fail("line %#x: node %d holds %v but dir %+v", line, n.id, st, e)
				}
			}
			if st == cache.Shared {
				if e.State != directory.Shared || !e.HasSharer(n.id) {
					s.fail("line %#x: node %d holds S but dir %+v", line, n.id, e)
				}
			}
			if len(n.parked) != 0 {
				s.fail("node %d still has parked interventions", n.id)
			}
			for l, c := range n.acks {
				if c > 0 {
					s.fail("node %d still expects %d acks for %#x", n.id, c, l)
				}
			}
		}
		if writers > 1 {
			s.fail("line %#x: %d writers", line, writers)
		}
	}
}

func TestProtocolFuzz(t *testing.T) {
	const nodes = 4
	lines := []uint64{0, 128, 4096, 8192, 12288} // homes 0,0,1,2,3
	for seed := uint64(1); seed <= 40; seed++ {
		s := newFuzzSys(t, nodes, seed)
		for step := 0; step < 400; step++ {
			if s.rng.Bool(0.45) {
				n := s.nodes[s.rng.Intn(nodes)]
				s.issue(n, lines[s.rng.Intn(len(lines))])
			}
			if s.rng.Bool(0.7) {
				s.deliverOne()
			}
			if s.rng.Bool(0.15) {
				s.drainRetries()
			}
		}
		s.drain()
		s.drainRetries()
		s.drain()
		s.checkInvariants(lines)
	}
}

// TestProtocolFuzzPooled re-runs the protocol fuzz through the pooled
// dispatch path (HandleInto + explicit Put at the handling point). In the
// default build this proves pooled message recycling reaches the same
// drained states and leaves no effect in the arena; under -tags poolcheck
// released messages are poisoned and fired effect slots are checked, so a
// handler that re-sends, retains or double-releases a message, or an effect
// fired twice, panics.
func TestProtocolFuzzPooled(t *testing.T) {
	const nodes = 4
	lines := []uint64{0, 128, 4096, 8192, 12288}
	for seed := uint64(1); seed <= 40; seed++ {
		s := newFuzzSys(t, nodes, seed)
		s.pool = network.NewPool()
		for step := 0; step < 400; step++ {
			if s.rng.Bool(0.45) {
				n := s.nodes[s.rng.Intn(nodes)]
				s.issue(n, lines[s.rng.Intn(len(lines))])
			}
			if s.rng.Bool(0.7) {
				s.deliverOne()
			}
			if s.rng.Bool(0.15) {
				s.drainRetries()
			}
		}
		s.drain()
		s.drainRetries()
		s.drain()
		s.checkInvariants(lines)
		if s.pool.Puts != s.pool.Gets {
			// Every message drawn must have died at exactly one handling
			// point once the system drained.
			t.Fatalf("seed %d: pool leak: gets=%d news=%d puts=%d",
				seed, s.pool.Gets, s.pool.News, s.pool.Puts)
		}
		if n := s.fx.Live(); n != 0 {
			t.Fatalf("seed %d: %d effects left unfired in the arena", seed, n)
		}
	}
}

func TestProtocolFuzzManyNodes(t *testing.T) {
	const nodes = 16
	var lines []uint64
	for i := 0; i < 8; i++ {
		lines = append(lines, uint64(i)*addrmap.PageSize)
	}
	for seed := uint64(100); seed < 110; seed++ {
		s := newFuzzSys(t, nodes, seed)
		for step := 0; step < 1200; step++ {
			if s.rng.Bool(0.5) {
				n := s.nodes[s.rng.Intn(nodes)]
				s.issue(n, lines[s.rng.Intn(len(lines))])
			}
			if s.rng.Bool(0.7) {
				s.deliverOne()
			}
			if s.rng.Bool(0.1) {
				s.drainRetries()
			}
		}
		s.drain()
		s.drainRetries()
		s.drain()
		s.checkInvariants(lines)
	}
}
