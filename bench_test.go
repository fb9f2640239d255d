// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark runs the same experiment code that cmd/paperbench prints,
// shrunk (node counts and problem scale) so the full suite completes in
// minutes; cmd/paperbench -full runs paper-size machines. The benchmarks
// report the headline quantity of their table/figure as a custom metric so
// `go test -bench` output doubles as a results summary.
package smtpsim_test

import (
	"math"
	"testing"

	"smtpsim/internal/coherence"
	"smtpsim/internal/core"
)

// benchSuite is the shrunken experiment configuration used by every
// benchmark: 4 nodes stand in for the paper's 16, 8 for its 32.
func benchSuite() core.Suite {
	return core.Suite{CPUGHz: 2, Scale: 0.25, Seed: 42}
}

const (
	benchSmall  = 4 // stands in for the paper's 16-node machine
	benchMedium = 8 // stands in for the paper's 32-node machine
	benchEight  = 4 // stands in for the paper's 8-node clock study
)

// reportSMTpVsInt512 reports the figure's headline: the geometric-mean
// execution time of SMTp relative to Int512KB (the paper's "within 3%"
// claim) and relative to Base.
func reportSMTpVsInt512(b *testing.B, f *core.Figure) {
	b.Helper()
	gm := func(m core.Model) float64 {
		prod := 1.0
		for _, app := range core.Apps() {
			prod *= f.Cell(app, m).NormTime
		}
		return math.Pow(prod, 1/float64(len(core.Apps())))
	}
	b.ReportMetric(gm(core.SMTp), "SMTp-vs-Base")
	b.ReportMetric(gm(core.SMTp)/gm(core.Int512KB), "SMTp-vs-Int512KB")
}

func runFigure(b *testing.B, nodes, way int, ghz float64) {
	s := benchSuite()
	s.CPUGHz = ghz
	for i := 0; i < b.N; i++ {
		f := s.RunFigure("bench", nodes, way)
		for _, c := range f.Cells {
			if !c.Result.Completed {
				b.Fatalf("%v/%v did not complete", c.App, c.Model)
			}
			if c.Result.CoherenceErr != nil {
				b.Fatalf("%v/%v: %v", c.App, c.Model, c.Result.CoherenceErr)
			}
		}
		if i == b.N-1 {
			reportSMTpVsInt512(b, f)
		}
	}
}

// Tables 5 and 6 — self-relative speedups.

func BenchmarkTable5_SpeedupBase(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.RunSpeedup(core.Base, benchSmall, []int{1, 2, 4})
		if i == b.N-1 {
			b.ReportMetric(t.Speedup[core.FFT][0], "FFT-1way-speedup")
			b.ReportMetric(t.Speedup[core.Ocean][1], "Ocean-2way-speedup")
		}
	}
}

func BenchmarkTable6_SpeedupSMTp(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.RunSpeedup(core.SMTp, benchSmall, []int{1, 2, 4})
		if i == b.N-1 {
			b.ReportMetric(t.Speedup[core.FFT][0], "FFT-1way-speedup")
			b.ReportMetric(t.Speedup[core.Ocean][1], "Ocean-2way-speedup")
		}
	}
}

// Figures 2-4 — single node at 1/2/4 application threads.

func BenchmarkFig2_SingleNode1Way(b *testing.B) { runFigure(b, 1, 1, 2) }
func BenchmarkFig3_SingleNode2Way(b *testing.B) { runFigure(b, 1, 2, 2) }
func BenchmarkFig4_SingleNode4Way(b *testing.B) { runFigure(b, 1, 4, 2) }

// Figures 5-7 — the paper's 16-node machine.

func BenchmarkFig5_16Node1Way(b *testing.B) { runFigure(b, benchSmall, 1, 2) }
func BenchmarkFig6_16Node2Way(b *testing.B) { runFigure(b, benchSmall, 2, 2) }
func BenchmarkFig7_16Node4Way(b *testing.B) { runFigure(b, benchSmall, 4, 2) }

// Figures 8-9 — the paper's 32-node machine.

func BenchmarkFig8_32Node1Way(b *testing.B) { runFigure(b, benchMedium, 1, 2) }
func BenchmarkFig9_32Node2Way(b *testing.B) { runFigure(b, benchMedium, 2, 2) }

// Table 7 — peak protocol occupancy.

func BenchmarkTable7_ProtocolOccupancy(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.RunOccupancy(benchSmall)
		if i == b.N-1 {
			// The paper's two categories as metrics.
			b.ReportMetric(t.Occupancy[core.FFT][3], "FFT-SMTp-occ-pct")
			b.ReportMetric(t.Occupancy[core.LU][3], "LU-SMTp-occ-pct")
		}
	}
}

// Table 8 — protocol thread characteristics.

func BenchmarkTable8_ProtocolThreadCharacteristics(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.RunProtoChar(benchSmall)
		if i == b.N-1 {
			for _, r := range t.Rows {
				if r.App == core.Water {
					b.ReportMetric(r.BrMispredRate, "Water-mispred-pct")
				}
				if r.App == core.FFT {
					b.ReportMetric(r.RetiredInsPct, "FFT-proto-retired-pct")
				}
			}
		}
	}
}

// Table 9 — protocol thread resource occupancy.

func BenchmarkTable9_ResourceOccupancy(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		t := s.RunResource(benchSmall)
		if i == b.N-1 {
			for _, r := range t.Rows {
				if r.App == core.Ocean {
					b.ReportMetric(float64(r.IntRegs.Peak), "Ocean-intreg-peak")
					b.ReportMetric(float64(r.LSQ.Peak), "Ocean-lsq-peak")
				}
			}
		}
	}
}

// Figures 10-11 — clock scaling to 4 GHz.

func BenchmarkFig10_8Node4GHz(b *testing.B) { runFigure(b, benchEight, 1, 4) }
func BenchmarkFig11_8Node2GHz(b *testing.B) { runFigure(b, benchEight, 1, 2) }

// Sharded execution (DESIGN.md §13) — the paper-size sweep points at
// several -shards values. The simulated result is byte-identical at every
// shard count (internal/core's TestShardDifferential pins that), so these
// benchmarks measure pure host wall time: the speedup from running one
// machine's shards on separate cores, or the coordinator's overhead when
// the host has fewer cores than shards. EXPERIMENTS.md records measured
// numbers and how to choose -shards.

func benchShardPoint(b *testing.B, nodes, shards int) {
	cfg := core.Config{
		Model: core.SMTp, App: core.FFT, Nodes: nodes, AppThreads: 2,
		Scale: 0.25, Seed: 42, Shards: shards,
	}
	w := core.BuildWorkload(cfg)
	for i := 0; i < b.N; i++ {
		r := core.RunWorkload(cfg, w)
		if !r.Completed {
			b.Fatal("sharded run did not complete")
		}
		if r.CoherenceErr != nil {
			b.Fatalf("sharded run: %v", r.CoherenceErr)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Cycles), "sim-cycles")
		}
	}
}

func BenchmarkShard16Node_Shards1(b *testing.B) { benchShardPoint(b, 16, 1) }
func BenchmarkShard16Node_Shards2(b *testing.B) { benchShardPoint(b, 16, 2) }
func BenchmarkShard16Node_Shards4(b *testing.B) { benchShardPoint(b, 16, 4) }

func BenchmarkShard32Node_Shards1(b *testing.B) { benchShardPoint(b, 32, 1) }
func BenchmarkShard32Node_Shards2(b *testing.B) { benchShardPoint(b, 32, 2) }
func BenchmarkShard32Node_Shards4(b *testing.B) { benchShardPoint(b, 32, 4) }

// The sync-heavy pinned point: Water's inner loops barrier and lock far
// more often than FFT's, so this configuration is the stress case for the
// coordinator's serial fraction — every unpolled SyncWait used to collapse
// the window to lockstep, and the ROB-bounded horizon plus adaptive quanta
// (DESIGN.md §13) are what keep it parallel. The benchmark reports the
// run's shard.serial_cycles as serial-cycles.

func benchShardSyncPoint(b *testing.B, shards int) {
	cfg := core.Config{
		Model: core.SMTp, App: core.Water, Nodes: 32, AppThreads: 1,
		Scale: 0.125, Seed: 42, Shards: shards,
	}
	w := core.BuildWorkload(cfg)
	for i := 0; i < b.N; i++ {
		r := core.RunWorkload(cfg, w)
		if !r.Completed {
			b.Fatal("sharded run did not complete")
		}
		if r.CoherenceErr != nil {
			b.Fatalf("sharded run: %v", r.CoherenceErr)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(r.Cycles), "sim-cycles")
			if sm := r.ShardMetrics; sm != nil {
				b.ReportMetric(float64(sm.Uint("shard.serial_cycles")), "serial-cycles")
			}
		}
	}
}

func BenchmarkShard32NodeSync_Shards1(b *testing.B) { benchShardSyncPoint(b, 1) }
func BenchmarkShard32NodeSync_Shards4(b *testing.B) { benchShardSyncPoint(b, 4) }

// Ablations from §2.1 and §2.3.

func ablationPair(b *testing.B, app core.App, tweak string) (on, off uint64) {
	base := core.Config{
		Model: core.SMTp, App: app, Nodes: benchSmall, AppThreads: 1,
		Scale: 0.25, Seed: 42,
	}
	w := core.BuildWorkload(base)
	r1 := core.RunWorkload(base, w)
	cfg2 := base
	cfg2.Tweak = tweak
	r2 := core.RunWorkload(cfg2, w)
	if !r1.Completed || !r2.Completed {
		b.Fatal("ablation run incomplete")
	}
	return uint64(r1.Cycles), uint64(r2.Cycles)
}

// BenchmarkAblationLAS measures look-ahead scheduling (paper: up to 3.9%).
func BenchmarkAblationLAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, without := ablationPair(b, core.Ocean, core.TweakNoLAS)
		if i == b.N-1 {
			b.ReportMetric(100*(float64(without)-float64(with))/float64(without), "LAS-gain-pct")
		}
	}
}

// BenchmarkAblationPerfectProtocolCaches isolates the cache-pollution cost
// of sharing L1/L2 with the protocol thread (paper: 0.9-5.1%).
func BenchmarkAblationPerfectProtocolCaches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		shared, perfect := ablationPair(b, core.FFT, core.TweakPerfectProtoCaches)
		if i == b.N-1 {
			b.ReportMetric(100*(float64(shared)-float64(perfect))/float64(shared), "perfect-cache-gain-pct")
		}
	}
}

// BenchmarkAblationBitOps removes the special bit-manipulation ALU ops
// (paper: <=0.3% average slowdown).
func BenchmarkAblationBitOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fast, slow := ablationPair(b, core.Radix, core.TweakSlowBitOps)
		if i == b.N-1 {
			b.ReportMetric(100*(float64(slow)-float64(fast))/float64(fast), "bitop-removal-cost-pct")
		}
	}
}

// protoReviveLogged is the ReVive protocol registered under its own name
// by a factory that keeps each run's log in lastReviveLog, so
// BenchmarkExtensionRevive can report the record count. The benchmark runs
// one simulation at a time, so the run it just finished owns the log.
const protoReviveLogged = "revive_logged"

var lastReviveLog *coherence.ReviveLog

func init() {
	core.RegisterProtocol(protoReviveLogged, func() *coherence.Table {
		lastReviveLog = coherence.NewReviveLog()
		return coherence.NewReviveTable(lastReviveLog)
	})
}

// BenchmarkExtensionRevive measures the paper's §6 claim that protocol
// extensions (here ReVive-style rollback logging) are protocol-code changes
// with small overheads: same machine, different protocol table.
func BenchmarkExtensionRevive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Model: core.SMTp, App: core.Radix, Nodes: benchSmall, AppThreads: 1,
			Scale: 0.25, Seed: 42,
		}
		w := core.BuildWorkload(cfg)
		base := core.RunWorkload(cfg, w)
		ext := cfg
		ext.Proto = protoReviveLogged
		rev := core.RunWorkload(ext, w)
		if !base.Completed || !rev.Completed || rev.CoherenceErr != nil {
			b.Fatal("revive bench run failed")
		}
		if i == b.N-1 {
			b.ReportMetric(100*(float64(rev.Cycles)-float64(base.Cycles))/float64(base.Cycles),
				"logging-overhead-pct")
			b.ReportMetric(float64(lastReviveLog.Entries), "log-records")
		}
	}
}
