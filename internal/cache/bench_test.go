package cache

import "testing"

// l2Config is the paper's 2 MB, 8-way L2 with 128-byte lines.
var l2Config = Config{Size: 2 * 1024 * 1024, LineSize: 128, Assoc: 8, HitLat: 9}

// BenchmarkCacheHit measures a hit lookup: index the set, match the tag,
// stamp LRU. Pinned at zero allocations.
func BenchmarkCacheHit(b *testing.B) {
	c := New(l2Config)
	const lines = 4096 // a quarter of the cache: every access hits
	for i := uint64(0); i < lines; i++ {
		c.Fill(i*128, Shared)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Access(uint64(i%lines)*128) == nil {
			b.Fatal("miss on a resident line")
		}
	}
}

// BenchmarkCacheMiss measures the miss path: a failed lookup, then a fill
// that evicts the set's LRU way (the streamed footprint is twice the
// cache, so every access misses). Pinned at zero allocations.
func BenchmarkCacheMiss(b *testing.B) {
	c := New(l2Config)
	lines := uint64(2 * l2Config.Size / l2Config.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) % lines * 128
		if c.Access(addr) != nil {
			b.Fatal("hit on a streamed-out line")
		}
		c.Fill(addr, Shared)
	}
}
