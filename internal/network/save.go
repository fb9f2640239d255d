package network

import (
	"fmt"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/sim"
	"smtpsim/internal/snapshot"
)

// KDeliver is the event-descriptor kind for a scheduled message delivery.
// The network claims kind 32; pipeline kinds live below it and memory-
// controller kinds above (see DESIGN.md §14).
const KDeliver uint8 = 32

// deliverDesc packs a delivery event's full identity into a descriptor.
// A Message is small enough that the descriptor IS the message: routing
// ids and type in one word, then address, aux and payload size. Fire
// rebuilds the message from the descriptor alone.
func deliverDesc(m *Message) sim.Desc {
	d := sim.Desc{Owner: int32(m.Dst), Kind: KDeliver}
	w := PackMessage(m)
	copy(d.Args[:4], w[:])
	return d
}

// unpackDeliver rebuilds the message a delivery descriptor stands for.
func unpackDeliver(d sim.Desc, m *Message) {
	UnpackMessage([4]uint64{d.Args[0], d.Args[1], d.Args[2], d.Args[3]}, m)
}

// PackMessage packs a message's full identity into four descriptor words:
// routing ids, virtual channel and type in the first, then address, aux
// and payload size. Shared by every descriptor that carries a message (the
// network's deliveries, the memory controllers' deferred enqueues and
// sends).
func PackMessage(m *Message) [4]uint64 {
	return [4]uint64{
		uint64(uint16(m.Src)) | uint64(uint16(m.Dst))<<16 |
			uint64(uint16(m.Requester))<<32 | uint64(m.VC)<<48 | uint64(m.Type)<<56,
		m.Addr,
		m.Aux,
		uint64(m.DataBytes),
	}
}

// UnpackMessage reverses PackMessage into m.
func UnpackMessage(a [4]uint64, m *Message) {
	ids := a[0]
	m.Src = addrmap.NodeID(int16(ids))
	m.Dst = addrmap.NodeID(int16(ids >> 16))
	m.Requester = addrmap.NodeID(int16(ids >> 32))
	m.VC = VC(uint8(ids >> 48))
	m.Type = uint8(ids >> 56)
	m.Addr = a[1]
	m.Aux = a[2]
	m.DataBytes = int(a[3])
}

// CheckDeliver validates a snapshotted KDeliver descriptor before restore
// pushes it: the packed message must be addressed to the node that owns
// the event, the node whose deliver callback Fire will run.
func CheckDeliver(d sim.Desc) error {
	var m Message
	unpackDeliver(d, &m)
	if int32(m.Dst) != d.Owner {
		return fmt.Errorf("network: delivery owned by node %d carries a message for node %d", d.Owner, m.Dst)
	}
	return nil
}

// MessageBytes is the encoded size of one SaveMessage record: loaders size
// message lists against it (snapshot.Decoder.Count).
const MessageBytes = 3*8 + 2 + 2*8 + 8

// SaveMessage serializes a message for snapshots of component queues (the
// memory controllers' rings and parked-intervention lists).
func SaveMessage(e *snapshot.Encoder, m *Message) {
	e.Int(int(m.Src))
	e.Int(int(m.Dst))
	e.Int(int(m.Requester))
	e.U8(uint8(m.VC))
	e.U8(m.Type)
	e.U64(m.Addr)
	e.U64(m.Aux)
	e.Int(m.DataBytes)
}

// DecodeMessage reads a message saved with SaveMessage into m.
func DecodeMessage(d *snapshot.Decoder, m *Message) {
	m.Src = addrmap.NodeID(d.Int())
	m.Dst = addrmap.NodeID(d.Int())
	m.Requester = addrmap.NodeID(d.Int())
	m.VC = VC(d.U8())
	m.Type = d.U8()
	m.Addr = d.U64()
	m.Aux = d.U64()
	m.DataBytes = d.Int()
}

// CheckQuiesced verifies the network holds no state outside the engines'
// event heaps: staged cross-shard sends are invisible to ExportState, so a
// snapshot may only be taken at a sync point after replay drained
// them (the machine's snapshot-cycle alignment guarantees this; the check
// makes a violation loud).
func (n *Network) CheckQuiesced() error {
	for i, ep := range n.eps {
		if len(ep.staged) != 0 {
			return fmt.Errorf("network: endpoint %d has %d staged sends at snapshot", i, len(ep.staged))
		}
	}
	return nil
}

// SaveState serializes the network's dynamic state. Per-endpoint traffic
// counters are folded into the aggregate totals — the split between the
// serial counters and each endpoint's is a shard-arrangement artifact the
// published metrics already hide (totSent and friends), so the snapshot
// stores only the arrangement-invariant sums and LoadState zeroes the
// endpoints. The link-reservation table is dense and topology-sized, hence
// identical across shard arrangements of the same Config.
func (n *Network) SaveState(e *snapshot.Encoder) {
	e.Mark("net")
	e.Int(len(n.linkBusy))
	for _, b := range n.linkBusy {
		e.U64(uint64(b))
	}
	e.U64(n.totSent())
	e.U64(n.totDelivered())
	e.U64(n.totBytesSent())
	e.U64(n.LinkWaits)
}

// LoadState restores state saved by SaveState into a network of identical
// topology (possibly a different shard arrangement).
func (n *Network) LoadState(d *snapshot.Decoder) {
	d.Expect("net")
	if k := d.Int(); d.Err() == nil && k != len(n.linkBusy) {
		d.Fail("network has %d link slots, want %d", k, len(n.linkBusy))
		return
	}
	for i := range n.linkBusy {
		n.linkBusy[i] = sim.Cycle(d.U64())
	}
	n.Sent = d.U64()
	n.Delivered = d.U64()
	n.BytesSent = d.U64()
	n.LinkWaits = d.U64()
	for _, ep := range n.eps {
		ep.Sent, ep.Delivered, ep.BytesSent = 0, 0, 0
	}
}
