package memctrl

import (
	"sort"

	"smtpsim/internal/cache"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
	"smtpsim/internal/stats"
)

// Event-descriptor kinds claimed by the memory controller (range 64..95;
// pipeline kinds live below 32, the network's delivery at 32).
const (
	// KMCDeferred is a local-miss enqueue crossing the non-integrated
	// controller's system bus (EnqueueLocal's PIExtraCycles leg).
	KMCDeferred uint8 = 64
	// KMCFire is a deferred effect action waiting on the overlapped SDRAM
	// read or crossing the processor bus (fireWhenReady / fire).
	KMCFire uint8 = 65
)

// Bit positions packed into a KMCFire descriptor's first word alongside
// the fire kind.
const (
	fireDescCrossed = 1 << 8
	fireDescUpgrade = 1 << 9
)

func (mc *MC) owner() int32 { return int32(mc.env.NodeID()) }

// SaveInstr encodes a coherence-handler instruction with the effect its
// handle names in this controller's arena. Every owner of traces this
// controller dispatched (the embedded protocol processor, the pipeline's
// protocol thread) saves them through it.
func (mc *MC) SaveInstr(e *snapshot.Encoder, in *isa.Instr) { mc.effects.SaveInstr(e, in) }

// LoadInstr decodes an instruction saved by SaveInstr, issuing its effect
// into this controller's arena under a fresh handle.
func (mc *MC) LoadInstr(d *snapshot.Decoder) isa.Instr { return mc.effects.LoadInstr(d) }

// deferredDesc describes a localDeferred event; the message is fully
// encoded in the descriptor.
func (mc *MC) deferredDesc(m *network.Message) sim.Desc {
	d := sim.Desc{Owner: mc.owner(), Kind: KMCDeferred}
	w := network.PackMessage(m)
	copy(d.Args[:4], w[:])
	return d
}

// sendDesc describes a deferred send: the fire kind, then the message.
func (mc *MC) sendDesc(m *network.Message) sim.Desc {
	d := sim.Desc{Owner: mc.owner(), Kind: KMCFire}
	d.Args[0] = uint64(fireSend)
	w := network.PackMessage(m)
	copy(d.Args[1:5], w[:])
	return d
}

// refillDesc describes a deferred refill: the fire kind and flag bits,
// then the line, its state and the expected invalidation-ack count.
func (mc *MC) refillDesc(line uint64, st cache.State, acks int, upgrade bool) sim.Desc {
	d := sim.Desc{Owner: mc.owner(), Kind: KMCFire}
	d.Args[0] = uint64(fireRefill)
	if upgrade {
		d.Args[0] |= fireDescUpgrade
	}
	d.Args[1] = line
	d.Args[2] = uint64(st)
	d.Args[3] = uint64(int64(acks))
	return d
}

// SaveState serializes the controller's queues, SDRAM and bus reservations,
// the in-flight read table (sorted by line, never by table layout), and its
// counters. The backend is saved separately, with SaveInstr: the embedded
// protocol processor by the node, the protocol thread by its pipeline.
func (mc *MC) SaveState(e *snapshot.Encoder) {
	e.Mark("mc")
	e.Int(len(mc.local))
	for i := range mc.local {
		s := &mc.local[i]
		e.Bool(s.arrived)
		if s.arrived {
			network.SaveMessage(e, &s.msg)
		}
	}
	for vc := range mc.in {
		r := &mc.in[vc]
		e.Int(r.size)
		for i := 0; i < r.size; i++ {
			network.SaveMessage(e, &r.buf[(r.head+i)&(len(r.buf)-1)])
		}
	}
	e.Bool(mc.localFirst)
	e.Int(mc.queued)
	e.U64(uint64(mc.sdramBusy))
	e.U64(uint64(mc.protoBusy))

	t := mc.memReads
	keys := make([]uint64, 0, t.n)
	for i, live := range t.live {
		if live {
			keys = append(keys, t.keys[i])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.Int(len(keys))
	for _, k := range keys {
		v, _ := t.get(k)
		e.U64(k)
		e.U64(uint64(v))
	}

	e.U64(mc.Dispatched)
	e.U64(mc.LocalFull)
	e.U64(mc.MemReadsIssued)
	e.U64(mc.MemWrites)
	e.U64(mc.ProtoMisses)
	for i := range mc.DispatchByType {
		e.U64(mc.DispatchByType[i])
	}
	savePeak(e, &mc.localDepth)
	for vc := range mc.vcDepth {
		savePeak(e, &mc.vcDepth[vc])
	}
}

// LoadState restores state saved by SaveState. The read table is rebuilt
// by insertion, which yields an equivalent (lookup-identical) layout
// regardless of the saved table's growth history. The effect arena
// empties: the backends restored after the controller re-issue the
// effects of their traces. The queued-message count is derived from the
// restored queues, and a stream whose stored count disagrees fails, as
// does a local queue longer than LocalQueueCap or an unarrived local slot
// on an integrated controller (nothing would ever fill it).
func (mc *MC) LoadState(d *snapshot.Decoder) {
	d.Expect("mc")
	mc.effects.Reset()
	mc.local = mc.local[:0]
	queued := 0
	n := d.Int()
	if d.Err() == nil && (n < 0 || n > mc.cfg.LocalQueueCap) {
		d.Fail("local miss queue holds %d slots, capacity %d", n, mc.cfg.LocalQueueCap)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		var s localSlot
		if s.arrived = d.Bool(); s.arrived {
			network.DecodeMessage(d, &s.msg)
			queued++
		} else if mc.cfg.PIExtraCycles == 0 {
			d.Fail("unarrived local slot on an integrated controller")
		}
		mc.local = append(mc.local, s)
	}
	for vc := range mc.in {
		r := &mc.in[vc]
		r.head, r.size = 0, 0
		var m network.Message
		for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
			network.DecodeMessage(d, &m)
			r.push(&m)
			queued++
		}
	}
	mc.localFirst = d.Bool()
	if q := d.Int(); d.Err() == nil && q != queued {
		d.Fail("controller records %d queued messages, its queues hold %d", q, queued)
	}
	mc.queued = queued
	mc.sdramBusy = sim.Cycle(d.U64())
	mc.protoBusy = sim.Cycle(d.U64())

	mc.memReads = newReadTable(readTableCap)
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		k := d.U64()
		mc.memReads.put(k, sim.Cycle(d.U64()))
	}

	mc.Dispatched = d.U64()
	mc.LocalFull = d.U64()
	mc.MemReadsIssued = d.U64()
	mc.MemWrites = d.U64()
	mc.ProtoMisses = d.U64()
	for i := range mc.DispatchByType {
		mc.DispatchByType[i] = d.U64()
	}
	loadPeak(d, &mc.localDepth)
	for vc := range mc.vcDepth {
		loadPeak(d, &mc.vcDepth[vc])
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
