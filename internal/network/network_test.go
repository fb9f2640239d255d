package network

import (
	"testing"
	"testing/quick"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/sim"
)

// mk builds a network on an engine whose fire function delivers through
// the network, as an unsharded machine's does.
func mk(nodes int, deliver func(Message)) (*Network, *sim.Engine) {
	var n *Network
	eng := sim.NewEngine(func(d sim.Desc) { n.Fire(d) })
	n = New(Config{Nodes: nodes, HopCycles: 50, BytesPerCyc: 0.5, LocalLoop: 4}, eng, deliver)
	return n, eng
}

func TestHops(t *testing.T) {
	n, _ := mk(32, nil)
	if n.Hops(0, 0) != 0 {
		t.Fatal("self hops must be 0")
	}
	if n.Hops(0, 1) != 1 {
		t.Fatal("bristled pair shares a router: 1 hop")
	}
	if n.Hops(0, 2) != 2 {
		t.Fatal("adjacent routers: 2 hops")
	}
	// Routers 0 (nodes 0,1) and 15 (nodes 30,31) differ in 4 bits: 5 hops.
	if got := n.Hops(0, 31); got != 5 {
		t.Fatalf("corner-to-corner hops=%d, want 5", got)
	}
	if n.Diameter() != 5 {
		t.Fatalf("32-node diameter=%d, want 5", n.Diameter())
	}
}

func TestHopsSymmetric(t *testing.T) {
	n, _ := mk(32, nil)
	f := func(a, b uint8) bool {
		x, y := addrmap.NodeID(a%32), addrmap.NodeID(b%32)
		return n.Hops(x, y) == n.Hops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	n, _ := mk(16, nil)
	f := func(a, b, c uint8) bool {
		x, y, z := addrmap.NodeID(a%16), addrmap.NodeID(b%16), addrmap.NodeID(c%16)
		return n.Hops(x, z) <= n.Hops(x, y)+n.Hops(y, z)+1 // +1 for the bristle hop
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryLatency(t *testing.T) {
	var got *Message
	var at sim.Cycle
	var n *Network
	var eng *sim.Engine
	n, eng = mk(4, func(m Message) { got = &m; at = eng.Now() })
	sent := Message{Src: 0, Dst: 2, VC: VCRequest, Addr: 0x1080, Aux: 3}
	n.Send(sent)
	for i := 0; i < 1000 && got == nil; i++ {
		eng.Step()
	}
	if got == nil {
		t.Fatal("message never delivered")
	}
	if *got != sent {
		t.Fatalf("delivered %+v, sent %+v", *got, sent)
	}
	// 16-byte header at 0.5 B/cyc = 32 cycles serialization at each port,
	// plus 2 hops of 50 cycles: 32 + 100 + 32 = 164.
	if at != 164 {
		t.Fatalf("control message latency=%d, want 164", at)
	}
}

func TestDataMessageSlower(t *testing.T) {
	var ctrlAt, dataAt sim.Cycle
	var n *Network
	var eng *sim.Engine
	deliver := func(m Message) {
		if m.DataBytes > 0 {
			dataAt = eng.Now()
		} else {
			ctrlAt = eng.Now()
		}
	}
	n, eng = mk(4, deliver)
	n.Send(Message{Src: 0, Dst: 3, DataBytes: 128})
	for i := 0; i < 5000 && dataAt == 0; i++ {
		eng.Step()
	}
	n2, eng2 := mk(4, deliver)
	eng = eng2
	n2.Send(Message{Src: 0, Dst: 3, DataBytes: 0})
	for i := 0; i < 5000 && ctrlAt == 0; i++ {
		eng2.Step()
	}
	if dataAt <= ctrlAt {
		t.Fatalf("data message (%d) should be slower than control (%d)", dataAt, ctrlAt)
	}
}

func TestInjectionPortContention(t *testing.T) {
	var arrivals []sim.Cycle
	var n *Network
	var eng *sim.Engine
	n, eng = mk(4, func(m Message) { arrivals = append(arrivals, eng.Now()) })
	// Two back-to-back sends from the same node serialize at the port.
	n.Send(Message{Src: 0, Dst: 2, DataBytes: 128})
	n.Send(Message{Src: 0, Dst: 2, DataBytes: 128})
	for i := 0; i < 10000 && len(arrivals) < 2; i++ {
		eng.Step()
	}
	if len(arrivals) != 2 {
		t.Fatal("messages not delivered")
	}
	ser := sim.Cycle(float64(128+HeaderBytes) / 0.5)
	if arrivals[1]-arrivals[0] < ser {
		t.Fatalf("second message arrived %d after first; want >= %d (serialization)",
			arrivals[1]-arrivals[0], ser)
	}
}

func TestLocalLoopback(t *testing.T) {
	var at sim.Cycle
	var eng *sim.Engine
	n, e := mk(2, nil)
	eng = e
	n.deliver = func(m Message) { at = eng.Now() }
	n.Send(Message{Src: 1, Dst: 1})
	for i := 0; i < 100 && at == 0; i++ {
		eng.Step()
	}
	if at != 4 {
		t.Fatalf("loopback latency=%d, want 4", at)
	}
}

func TestInFlightAccounting(t *testing.T) {
	delivered := 0
	n, eng := mk(4, func(m Message) { delivered++ })
	n.Send(Message{Src: 0, Dst: 1})
	n.Send(Message{Src: 1, Dst: 0})
	if n.InFlight() != 2 {
		t.Fatalf("in flight=%d, want 2", n.InFlight())
	}
	for i := 0; i < 2000 && delivered < 2; i++ {
		eng.Step()
	}
	if n.InFlight() != 0 {
		t.Fatalf("in flight=%d after drain, want 0", n.InFlight())
	}
}

func TestOrderingSameSrcDstSameSize(t *testing.T) {
	// Equal-size messages between the same pair must arrive in send order
	// (the protocol depends on per-channel point-to-point ordering).
	var order []uint64
	n, eng := mk(4, func(m Message) { order = append(order, m.Aux) })
	for i := uint64(0); i < 5; i++ {
		n.Send(Message{Src: 0, Dst: 2, VC: VCRequest, Aux: i})
	}
	for i := 0; i < 20000 && len(order) < 5; i++ {
		eng.Step()
	}
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("out-of-order delivery: %v", order)
		}
	}
}

func TestVCNames(t *testing.T) {
	for v := VCRequest; v < NumVCs; v++ {
		if v.String() == "vc?" {
			t.Fatalf("VC %d unnamed", v)
		}
	}
}

func TestDimensionLinkContention(t *testing.T) {
	// Nodes 0 and 1 share a router; messages from both to node 2 share the
	// same dimension link and must serialize on it.
	var arrivals []sim.Cycle
	var n *Network
	var eng *sim.Engine
	n, eng = mk(4, func(m Message) { arrivals = append(arrivals, eng.Now()) })
	n.Send(Message{Src: 0, Dst: 2, DataBytes: 128})
	n.Send(Message{Src: 1, Dst: 2, DataBytes: 128})
	for i := 0; i < 20000 && len(arrivals) < 2; i++ {
		eng.Step()
	}
	if len(arrivals) != 2 {
		t.Fatal("messages not delivered")
	}
	ser := sim.Cycle(float64(128+HeaderBytes) / 0.5)
	if arrivals[1]-arrivals[0] < ser {
		t.Fatalf("shared dimension link must serialize: gap %d < %d",
			arrivals[1]-arrivals[0], ser)
	}
	if n.LinkWaits == 0 {
		t.Fatal("link contention not recorded")
	}
}

func TestDisjointRoutesDoNotContend(t *testing.T) {
	// 0->1 (same router) and 2->3 (same router) share nothing.
	var arrivals []sim.Cycle
	var eng *sim.Engine
	n, e := mk(4, nil)
	eng = e
	n.deliver = func(m Message) { arrivals = append(arrivals, eng.Now()) }
	n.Send(Message{Src: 0, Dst: 1, DataBytes: 128})
	n.Send(Message{Src: 2, Dst: 3, DataBytes: 128})
	for i := 0; i < 20000 && len(arrivals) < 2; i++ {
		eng.Step()
	}
	if arrivals[0] != arrivals[1] {
		t.Fatalf("disjoint routes must not interfere: %v", arrivals)
	}
	if n.LinkWaits != 0 {
		t.Fatal("phantom link contention")
	}
}

func TestRouteStructure(t *testing.T) {
	n, _ := mk(32, nil)
	// 32 nodes: 16 routers, 4 dimensions. Link-table layout: [0,32) the
	// node->router bristles, [32,96) router->router slots (router*4+dim),
	// [96,128) the router->node bristles.
	if n.dims != 4 || n.dimBase != 32 || n.ejBase != 96 || len(n.linkBusy) != 128 {
		t.Fatalf("table layout dims=%d dimBase=%d ejBase=%d len=%d",
			n.dims, n.dimBase, n.ejBase, len(n.linkBusy))
	}
	// 0 -> 31: routers 0 -> 15, correcting dimensions 0,1,2,3 in order:
	// router path 0 -> 1 -> 3 -> 7 -> 15.
	n.Send(Message{Src: 0, Dst: 31})
	var used []int
	for i, b := range n.linkBusy {
		if b != 0 {
			used = append(used, i)
		}
	}
	want := []int{
		0,            // node 0 -> router 0 bristle
		32 + 0*4 + 0, // router 0, dimension 0
		32 + 1*4 + 1, // router 1, dimension 1
		32 + 3*4 + 2, // router 3, dimension 2
		32 + 7*4 + 3, // router 7, dimension 3
		96 + 31,      // router 15 -> node 31 bristle
	}
	if len(used) != len(want) {
		t.Fatalf("reserved slots %v, want %v", used, want)
	}
	for i := range want {
		if used[i] != want[i] {
			t.Fatalf("reserved slots %v, want %v", used, want)
		}
	}
}

// TestCheckDeliver: a delivery descriptor restores only on the node its
// message is addressed to.
func TestCheckDeliver(t *testing.T) {
	d := deliverDesc(&Message{Src: 0, Dst: 3, Addr: 0x80})
	if err := CheckDeliver(d); err != nil {
		t.Fatalf("delivery descriptor rejected: %v", err)
	}
	d.Owner = 2
	if CheckDeliver(d) == nil {
		t.Fatal("a delivery owned by a node other than its destination passed")
	}
}
