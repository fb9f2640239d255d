package network

import (
	"sort"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/sim"
)

// Port is the interconnect surface a message producer (a node's memory
// controller) needs: inject a message. On a serial machine the Network
// itself is the port; on a sharded machine each shard talks to its own
// Endpoint so the hot send path touches no shared state.
type Port interface {
	Send(m Message)
}

// stagedSend is one cross-shard message awaiting deterministic replay: the
// message, its send cycle, the sender's engine position at Send time (the
// global scheduling order of the send), and the endpoint-local staging
// sequence that breaks ties among sends from the same position.
//
//simlint:shardlocal -- staged sends live in endpoint-local buffers during a window; PlanReplay merges them into the network's replay buffer only at sync points, with all shards parked
type stagedSend struct {
	m   Message
	at  sim.Cycle
	pos [3]uint64
	seq uint64
}

// Endpoint is one shard's private interface to the shared Network
// (DESIGN.md §13). Sends whose destination lives on any shard are staged —
// never delivered directly — and the quantum coordinator replays all
// shards' staged sends in the global serial order at every sync point,
// reserving the shared link tables single-threaded. Loopback messages
// (Src == Dst) never leave the shard and are scheduled inline. The traffic
// counters are endpoint-local, so the steady-state send path allocates
// nothing and shares nothing.
//
//simlint:shardlocal -- one endpoint per shard by construction; only the owning shard's send path touches it inside a window, and PlanReplay drains it with all shards parked
type Endpoint struct {
	net    *Network
	eng    *sim.Engine
	staged []stagedSend
	seq    uint64

	Sent      uint64
	Delivered uint64
	BytesSent uint64
}

// NewEndpoint creates a shard-local port onto the network, driven by the
// shard's engine. Deliveries to this shard's nodes fire through the
// endpoint (Fire).
func (n *Network) NewEndpoint(eng *sim.Engine) *Endpoint {
	ep := &Endpoint{net: n, eng: eng}
	n.eps = append(n.eps, ep)
	return ep
}

// Send implements Port: loopback messages are scheduled shard-locally at
// the configured loopback latency, everything else is staged for the next
// sync-point replay. Counters are endpoint-local; the network sums them.
func (e *Endpoint) Send(m Message) {
	e.Sent++
	e.BytesSent += uint64(m.Bytes())
	if m.Src == m.Dst {
		e.eng.Schedule(e.eng.Now()+e.net.cfg.LocalLoop, deliverDesc(&m))
		return
	}
	e.seq++
	e.staged = append(e.staged, stagedSend{m: m, at: e.eng.Now(), pos: e.eng.Pos(), seq: e.seq})
}

// NextWork implements sim.Quiescer for the shard engine: like the serial
// network, every in-flight message is a scheduled delivery event (staged
// sends only become visible to other shards at a sync point, which is also
// a skip boundary), so the endpoint itself never bounds a jump.
func (e *Endpoint) NextWork(now sim.Cycle) (sim.Cycle, bool) {
	return sim.NoWork, true
}

// Fire runs a KDeliver event on a sharded machine: the message the
// descriptor carries is unpacked and handed to the network's deliver
// callback.
func (e *Endpoint) Fire(d sim.Desc) {
	var m Message
	unpackDeliver(d, &m)
	e.Delivered++
	e.net.deliver(m)
}

// minParallelReplay is the smallest staged-send batch worth a partitioned
// replay: below it, the barrier round-trip that dispatches the partitions
// to the shard workers costs more than the replay itself. The gate is a
// pure function of the staged message count, so plan admission — and with
// it the shard.* telemetry — is deterministic.
const minParallelReplay = 32

// ReplayPlan is one sync point's staged cross-shard sends after the single
// global merge-sort. When Parallel reports true the plan additionally
// partitioned the sends by destination shard and proved the partitions'
// link sets pairwise disjoint: ReplayPart may then run every partition
// concurrently, and the serial replay's result is reproduced exactly (see
// the non-interference argument in DESIGN.md §13). Otherwise the caller
// replays the whole sorted buffer single-threaded with ReplaySerial.
// Either way, Finish folds the telemetry and recycles the buffers.
//
// The plan is owned by its Network and reused across sync points; only one
// may be open at a time.
type ReplayPlan struct {
	n        *Network
	buf      []stagedSend   // all staged sends, in global serial order
	parts    [][]stagedSend // per destination shard, global order preserved
	waits    []uint64       // per-partition link-wait counts
	parallel bool
}

// PlanReplay drains every endpoint's staged sends and merge-sorts them
// into the global serial send order (the captured engine positions, ties
// broken by the endpoint-local staging sequence — the serial engine's own
// ordering). The sort runs exactly once per sync point regardless of how
// the replay is then executed.
//
// With shards > 1 and a batch large enough to amortize a dispatch round,
// the plan partitions the sends by destination shard and checks — with a
// stamped walk of every message's dimension-ordered route — that no link
// is touched by two partitions. Disjoint partitions interact through
// nothing: reservations touch partition-private rows of the shared link
// table, deliveries are scheduled on the partition's own shard engine and
// endpoint, and link waits accumulate per partition. The check is a pure
// function of the sorted message list, so plan admission is deterministic.
func (n *Network) PlanReplay(nodesPerShard, shards int) *ReplayPlan {
	buf := n.replayBuf[:0]
	for _, ep := range n.eps {
		buf = append(buf, ep.staged...)
		ep.staged = ep.staged[:0]
	}
	n.replayBuf = buf
	p := &n.plan
	p.n = n
	p.buf = buf
	p.parallel = false
	if len(buf) == 0 {
		return p
	}
	sort.Slice(buf, func(i, j int) bool {
		a, b := &buf[i], &buf[j]
		if a.pos != b.pos {
			if a.pos[0] != b.pos[0] {
				return a.pos[0] < b.pos[0]
			}
			if a.pos[1] != b.pos[1] {
				return a.pos[1] < b.pos[1]
			}
			return a.pos[2] < b.pos[2]
		}
		return a.seq < b.seq
	})
	if shards <= 1 || len(buf) < minParallelReplay {
		return p
	}
	if n.stampGen == nil {
		n.stampGen = make([]uint32, len(n.linkBusy))
		n.stampPart = make([]int32, len(n.linkBusy))
	}
	if n.stampCur++; n.stampCur == 0 { // generation wrapped: flush stale stamps
		for i := range n.stampGen {
			n.stampGen[i] = 0
		}
		n.stampCur = 1
	}
	for i := range buf {
		m := &buf[i].m
		if !n.stampRoute(m.Src, m.Dst, int32(int(m.Dst)/nodesPerShard)) {
			return p // two partitions share a link: replay serially
		}
	}
	if cap(n.parts) < shards {
		n.parts = make([][]stagedSend, shards)
		n.waits = make([]uint64, shards)
	}
	p.parts = n.parts[:shards]
	p.waits = n.waits[:shards]
	for k := range p.parts {
		p.parts[k] = p.parts[k][:0]
		p.waits[k] = 0
	}
	for i := range buf {
		k := int(buf[i].m.Dst) / nodesPerShard
		p.parts[k] = append(p.parts[k], buf[i])
	}
	p.parallel = true
	return p
}

// stampRoute stamps every link of the src->dst dimension-ordered route
// with the message's partition, reporting false the moment a link already
// carries another partition's stamp this generation.
func (n *Network) stampRoute(src, dst addrmap.NodeID, part int32) bool {
	if !n.stampLink(int(src), part) {
		return false
	}
	cur, d2 := routerOf(src), routerOf(dst)
	for d := 0; cur != d2; d++ {
		bit := 1 << uint(d)
		if (cur^d2)&bit != 0 {
			if !n.stampLink(n.dimBase+cur*n.dims+d, part) {
				return false
			}
			cur ^= bit
		}
	}
	return n.stampLink(n.ejBase+int(dst), part)
}

func (n *Network) stampLink(l int, part int32) bool {
	if n.stampGen[l] == n.stampCur {
		return n.stampPart[l] == part
	}
	n.stampGen[l] = n.stampCur
	n.stampPart[l] = part
	return true
}

// Parallel reports whether the plan admitted a partitioned replay.
func (p *ReplayPlan) Parallel() bool { return p.parallel }

// Count reports how many staged sends the plan holds.
func (p *ReplayPlan) Count() int { return len(p.buf) }

// ReplaySerial replays the whole sorted buffer single-threaded — the
// original replay pass, for plans that did not admit partitioning.
func (p *ReplayPlan) ReplaySerial(epOf func(addrmap.NodeID) *Endpoint) {
	p.n.replayRange(p.buf, epOf, &p.n.LinkWaits)
}

// ReplayPart replays partition k of a parallel plan. Distinct partitions
// may run concurrently (the coordinator dispatches one per shard through
// the quantum barrier): the admission check proved their link sets
// pairwise disjoint, every delivery targets the partition's own shard
// engine and endpoint, and link waits accumulate into the partition's
// private counter until Finish folds them.
//
//simlint:shardfunnel -- partition k touches only partition-private link rows (proved disjoint at plan time), shard k's engine and endpoint, and its own wait counter; concurrent partitions share nothing
func (p *ReplayPlan) ReplayPart(k int, epOf func(addrmap.NodeID) *Endpoint) {
	p.n.replayRange(p.parts[k], epOf, &p.waits[k])
}

// replayRange replays one ordered run of staged sends: reserve bandwidth
// on every link of each message's dimension-ordered route and schedule the
// delivery on the destination shard's engine under the sender's captured
// position via ScheduleKeyed, so it interleaves with the destination
// shard's local events exactly as on one serial engine. A link's
// reservation outcome depends only on the sequence of reservations against
// that link, and every caller presents each link's messages in the global
// serial order, so the reservation times — and the contention the waits
// counter records — are byte-identical to the serial network's.
func (n *Network) replayRange(msgs []stagedSend, epOf func(addrmap.NodeID) *Endpoint, waits *uint64) {
	for i := range msgs {
		s := &msgs[i]
		m := &s.m
		ser := serCycles(m.Bytes(), n.cfg.BytesPerCyc)
		t := s.at
		t = reserveOn(n.linkBusy, int(m.Src), t, ser, waits)
		cur, dst := routerOf(m.Src), routerOf(m.Dst)
		for d := 0; cur != dst; d++ {
			bit := 1 << uint(d)
			if (cur^dst)&bit != 0 {
				t = reserveOn(n.linkBusy, n.dimBase+cur*n.dims+d, t, ser, waits)
				cur ^= bit
			}
		}
		t = reserveOn(n.linkBusy, n.ejBase+int(m.Dst), t, ser, waits)
		done := t + 2*ser + sim.Cycle(n.Hops(m.Src, m.Dst))*n.cfg.HopCycles
		to := epOf(m.Dst)
		if n.obs != nil {
			n.obs(*m, done)
		}
		to.eng.ScheduleKeyed(done, s.pos, deliverDesc(m))
	}
}

// reserveOn is reserveLink against an explicit wait counter, so partitioned
// replays can account contention without sharing a counter.
func reserveOn(busy []sim.Cycle, l int, t, ser sim.Cycle, waits *uint64) sim.Cycle {
	if b := busy[l]; b > t {
		t = b
		*waits++
	}
	busy[l] = t + ser
	return t
}

// Finish folds a parallel plan's per-partition wait counts into the shared
// counter (a sum, so the fold order cannot matter) and recycles the plan's
// buffers. Returns the number of messages replayed.
func (p *ReplayPlan) Finish() int {
	replayed := len(p.buf)
	if p.parallel {
		for k := range p.waits {
			p.n.LinkWaits += p.waits[k]
			p.waits[k] = 0
		}
	}
	p.n.replayBuf = p.buf[:0]
	p.buf = nil
	p.parts = nil
	return replayed
}

// SetReplayObserver installs the replay delivery observer (see the obs
// field). Install before the first sync point; the observer must be safe to
// call from a replay partition for destinations that partition owns.
func (n *Network) SetReplayObserver(fn func(m Message, done sim.Cycle)) { n.obs = fn }
