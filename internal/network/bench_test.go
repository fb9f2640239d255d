package network

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/sim"
)

// BenchmarkSendDeliverRelease pins the full message lifecycle — Send of a
// value over the bristled hypercube (link reservations in the dense table,
// the message packed into its delivery descriptor), then the delivery
// unpacking it and handing it to the deliver callback — at zero
// allocations per message in steady state.
func BenchmarkSendDeliverRelease(b *testing.B) {
	var net *Network
	var got uint64
	eng := sim.NewEngine(func(d sim.Desc) { net.Fire(d) })
	net = New(Config{Nodes: 32, HopCycles: 2, BytesPerCyc: 1, LocalLoop: 4},
		eng, func(m Message) { got += m.Aux })
	send := func(i int) {
		src := addrmap.NodeID(i & 31)
		net.Send(Message{Src: src, Dst: addrmap.NodeID((i * 7) & 31), Requester: src, Aux: 1, DataBytes: 8})
	}
	drainTo := func(want uint64) {
		for net.Delivered < want {
			eng.Advance(eng.Now() + 1024)
		}
	}
	// Warm the descriptor arena and the event queue.
	for i := 0; i < 256; i++ {
		send(i)
	}
	drainTo(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
		drainTo(uint64(257 + i))
	}
	b.StopTimer()
	if got != net.Delivered {
		b.Fatalf("deliver callback saw %d messages, network delivered %d", got, net.Delivered)
	}
}
