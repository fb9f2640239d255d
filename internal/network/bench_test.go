package network

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/sim"
)

// BenchmarkSendDeliverRelease pins the full pooled message lifecycle —
// pool Get, Send over the bristled hypercube (link reservations in the
// dense table, the message released into its delivery descriptor), the
// delivery drawing a fresh message, and release back to the pool — at zero
// allocations per message in steady state.
func BenchmarkSendDeliverRelease(b *testing.B) {
	var net *Network
	eng := sim.NewEngine(func(d sim.Desc) { net.Fire(d) })
	net = New(Config{Nodes: 32, HopCycles: 2, BytesPerCyc: 1, LocalLoop: 4},
		eng, func(m *Message) { net.MsgPool().Put(m) })
	pool := net.MsgPool()
	send := func(i int) {
		m := pool.Get()
		m.Src = addrmap.NodeID(i & 31)
		m.Dst = addrmap.NodeID((i * 7) & 31)
		m.Requester = m.Src
		m.DataBytes = 8
		net.Send(m)
	}
	drainTo := func(want uint64) {
		for net.Delivered < want {
			eng.Advance(eng.Now() + 1024)
		}
	}
	// Warm the pool, the descriptor arena and the event queue.
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
	if pool.Puts != pool.Gets {
		b.Fatalf("pool leak: gets=%d puts=%d", pool.Gets, pool.Puts)
	}
}
