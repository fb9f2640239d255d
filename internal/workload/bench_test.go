package workload

import "testing"

// BenchmarkBuild measures building one application's streams for an
// 8-node, 2-way machine (the paper-sweep shape); B/op is the memory the
// generators allocate, dominated by the streams themselves.
func BenchmarkBuild(b *testing.B) {
	p := Params{App: FFT, Threads: 16, Nodes: 8, Scale: 0.25, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(p)
	}
}
