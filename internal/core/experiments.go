package core

import (
	"context"
	"fmt"
	"strings"

	"smtpsim/internal/sim"
)

// Suite holds the common knobs for reproducing the paper's experiments.
// Nodes counts and scale are parameters so tests can run shrunken versions
// of the same experiment code that cmd/paperbench runs at paper sizes.
//
// Every driver fans its independent runs out over a Runner worker pool;
// results are reassembled by job index, so the rendered tables are
// byte-identical whatever Workers is set to.
type Suite struct {
	CPUGHz float64
	Scale  float64
	Seed   uint64
	// MaxCycles bounds each run; 0 = default.
	MaxCycles uint64

	// Shards partitions each simulated machine across that many OS threads
	// (see Config.Shards); output is byte-identical at any value. Combine
	// with Workers thoughtfully: total goroutines ≈ Workers × Shards.
	Shards int

	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Progress, when set, observes every finished run of every driver.
	Progress ProgressFunc
	// Ctx, when set, cancels in-flight runs in every driver (the drivers
	// keep their simple signatures; this is the one escape hatch). A
	// cancelled driver still returns its table shape, with the unfinished
	// cells carrying failed Results.
	Ctx context.Context
}

func (s Suite) cfg(model Model, app App, nodes, way int) Config {
	return Config{
		Model:      model,
		App:        app,
		Nodes:      nodes,
		AppThreads: way,
		CPUGHz:     s.CPUGHz,
		Scale:      s.Scale,
		Seed:       s.Seed,
		MaxCycles:  sim.Cycle(s.MaxCycles),
		Shards:     s.Shards,
	}
}

func (s Suite) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// batch runs jobs through the suite's worker pool.
func (s Suite) batch(jobs []Job) []*Result {
	return Runner{Workers: s.Workers, OnProgress: s.Progress}.RunBatch(s.ctx(), jobs)
}

// FigureCell is one bar of a normalized-execution-time figure.
type FigureCell struct {
	App      App
	Model    Model
	NormTime float64 // execution time normalized to Base
	MemStall float64 // memory-stall portion of NormTime
	NonMem   float64
	Result   *Result
}

// Figure reproduces one of Figures 2-11: per application, the execution
// time of all five machine models normalized to Base, split into memory
// stall and non-memory cycles.
type Figure struct {
	Title string
	Nodes int
	Way   int
	GHz   float64
	Cells []FigureCell
}

// RunFigure produces the normalized-execution-time comparison for a
// machine size (the paper's Figures 2-11). The per-app Base run executes
// first (it builds the shared workload and sets the normalization
// denominator); the Base runs of all apps, and then the remaining four
// models of every app, fan out over the suite's worker pool.
func (s Suite) RunFigure(title string, nodes, way int) *Figure {
	f := &Figure{Title: title, Nodes: nodes, Way: way, GHz: s.CPUGHz}
	apps, models := Apps(), Models()

	baseJobs := make([]Job, len(apps))
	for i, app := range apps {
		cfg := s.cfg(Base, app, nodes, way)
		baseJobs[i] = Job{Cfg: cfg, Workload: BuildWorkload(cfg)}
	}
	baseRes := s.batch(baseJobs)

	var restJobs []Job
	for i, app := range apps {
		for _, model := range models {
			if model == Base {
				continue
			}
			cfg := s.cfg(model, app, nodes, way)
			restJobs = append(restJobs, Job{Cfg: cfg, Workload: baseJobs[i].Workload})
		}
	}
	restRes := s.batch(restJobs)

	// Reassemble in the serial order: app-major, paper model order.
	k := 0
	for i, app := range apps {
		baseCycles := float64(baseRes[i].Cycles)
		for _, model := range models {
			res := baseRes[i]
			if model != Base {
				res = restRes[k]
				k++
			}
			var norm float64
			if baseCycles > 0 {
				// A cancelled or failed Base run has zero cycles; leave the
				// app's cells at 0 (their Result.Err says why) rather than
				// rendering NaN.
				norm = float64(res.Cycles) / baseCycles
			}
			f.Cells = append(f.Cells, FigureCell{
				App:      app,
				Model:    model,
				NormTime: norm,
				MemStall: norm * res.MemStallFrac,
				NonMem:   norm * res.NonMemFrac,
				Result:   res,
			})
		}
	}
	return f
}

// Cell returns the figure cell for (app, model).
func (f *Figure) Cell(app App, model Model) *FigureCell {
	for i := range f.Cells {
		if f.Cells[i].App == app && f.Cells[i].Model == model {
			return &f.Cells[i]
		}
	}
	return nil
}

// Render formats the figure as the paper's bar values.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d nodes, %d-way, %.0f GHz)\n", f.Title, f.Nodes, f.Way, f.GHz)
	fmt.Fprintf(&b, "%-11s", "App")
	for _, m := range Models() {
		fmt.Fprintf(&b, "%22s", m)
	}
	b.WriteString("\n")
	for _, app := range Apps() {
		fmt.Fprintf(&b, "%-11s", app)
		for _, m := range Models() {
			c := f.Cell(app, m)
			fmt.Fprintf(&b, "  %5.3f (%4.2fm+%4.2fc)", c.NormTime, c.MemStall, c.NonMem)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SpeedupTable reproduces Tables 5 and 6: self-relative speedups of an
// n-node machine at 1/2/4 application threads per node, relative to the
// single-node 1-way execution of the same model and problem size.
type SpeedupTable struct {
	Model Model
	Nodes int
	Ways  []int
	// Speedup[app][wayIdx]
	Speedup map[App][]float64
	// Incomplete lists runs that hit their cycle budget (their cells are
	// untrustworthy); empty on a healthy sweep.
	Incomplete []string
}

// RunSpeedup produces a speedup table. Every run — the single-node anchor
// and each way count, for every app — is independent (the anchor only
// enters the ratio after the fact), so the whole table is one batch.
func (s Suite) RunSpeedup(model Model, nodes int, ways []int) *SpeedupTable {
	t := &SpeedupTable{Model: model, Nodes: nodes, Ways: ways, Speedup: map[App][]float64{}}
	maxWay := ways[len(ways)-1]
	// Anchor the problem size to the largest configuration so every run
	// solves the same problem.
	sizeFor := nodes * maxWay
	stride := 1 + len(ways) // per app: anchor then each way
	var jobs []Job
	for _, app := range Apps() {
		base := s.cfg(model, app, 1, 1)
		base.SizeFor = sizeFor
		jobs = append(jobs, Job{Cfg: base})
		for _, way := range ways {
			c := s.cfg(model, app, nodes, way)
			c.SizeFor = sizeFor
			jobs = append(jobs, Job{Cfg: c})
		}
	}
	results := s.batch(jobs)
	for ai, app := range Apps() {
		baseRes := results[ai*stride]
		if !baseRes.Completed {
			t.Incomplete = append(t.Incomplete, fmt.Sprintf("%v 1n1w", app))
		}
		for wi, way := range ways {
			res := results[ai*stride+1+wi]
			if !res.Completed {
				t.Incomplete = append(t.Incomplete, fmt.Sprintf("%v %dn%dw", app, nodes, way))
			}
			sp := float64(baseRes.Cycles) / float64(res.Cycles)
			t.Speedup[app] = append(t.Speedup[app], sp)
		}
	}
	return t
}

// Render formats the table like the paper's Tables 5/6.
func (t *SpeedupTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-node speedup in %v\n%-11s", t.Nodes, t.Model, "App")
	for _, w := range t.Ways {
		fmt.Fprintf(&b, "%8d-way", w)
	}
	b.WriteString("\n")
	for _, app := range Apps() {
		fmt.Fprintf(&b, "%-11s", app)
		for i := range t.Ways {
			fmt.Fprintf(&b, "%12.2f", t.Speedup[app][i])
		}
		b.WriteString("\n")
	}
	for _, bad := range t.Incomplete {
		fmt.Fprintf(&b, "WARNING: %s hit its cycle budget\n", bad)
	}
	return b.String()
}

// OccupancyTable reproduces Table 7: peak protocol occupancy as a
// percentage of parallel execution time for Base, IntPerfect, Int512KB and
// SMTp.
type OccupancyTable struct {
	Nodes int
	// Occupancy[app][modelIdx] in percent, model order as in Models()
	// filtered to the table's four models.
	Models    []Model
	Occupancy map[App][]float64
}

// RunOccupancy produces Table 7.
func (s Suite) RunOccupancy(nodes int) *OccupancyTable {
	t := &OccupancyTable{
		Nodes:     nodes,
		Models:    []Model{Base, IntPerfect, Int512KB, SMTp},
		Occupancy: map[App][]float64{},
	}
	var jobs []Job
	for _, app := range Apps() {
		cfg := s.cfg(Base, app, nodes, 1)
		w := BuildWorkload(cfg)
		for _, model := range t.Models {
			c := cfg
			c.Model = model
			jobs = append(jobs, Job{Cfg: c, Workload: w})
		}
	}
	results := s.batch(jobs)
	k := 0
	for _, app := range Apps() {
		for range t.Models {
			t.Occupancy[app] = append(t.Occupancy[app], 100*results[k].ProtoOccupancyPeak)
			k++
		}
	}
	return t
}

// Render formats Table 7.
func (t *OccupancyTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-node protocol occupancy (1-way nodes), %% of execution\n%-11s", t.Nodes, "App")
	for _, m := range t.Models {
		fmt.Fprintf(&b, "%12s", m)
	}
	b.WriteString("\n")
	for _, app := range Apps() {
		fmt.Fprintf(&b, "%-11s", app)
		for i := range t.Models {
			fmt.Fprintf(&b, "%11.1f%%", t.Occupancy[app][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ProtoCharRow is one row of Table 8.
type ProtoCharRow struct {
	App           App
	BrMispredRate float64 // percent
	SquashPct     float64
	RetiredInsPct float64
}

// ProtoCharTable reproduces Table 8: protocol thread characteristics on
// SMTp.
type ProtoCharTable struct {
	Nodes int
	Rows  []ProtoCharRow
}

// RunProtoChar produces Table 8.
func (s Suite) RunProtoChar(nodes int) *ProtoCharTable {
	t := &ProtoCharTable{Nodes: nodes}
	results := s.batch(s.smtpJobs(nodes))
	for i, app := range Apps() {
		res := results[i]
		t.Rows = append(t.Rows, ProtoCharRow{
			App:           app,
			BrMispredRate: 100 * res.ProtoBrMispredRate,
			SquashPct:     res.ProtoSquashPct,
			RetiredInsPct: res.ProtoRetiredPct,
		})
	}
	return t
}

// smtpJobs is the shared job list of Tables 8 and 9: one SMTp run per app.
func (s Suite) smtpJobs(nodes int) []Job {
	jobs := make([]Job, 0, len(Apps()))
	for _, app := range Apps() {
		jobs = append(jobs, Job{Cfg: s.cfg(SMTp, app, nodes, 1)})
	}
	return jobs
}

// Render formats Table 8.
func (t *ProtoCharTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Protocol thread characteristics, %d nodes (1-way)\n", t.Nodes)
	fmt.Fprintf(&b, "%-11s%16s%12s%16s\n", "App", "Br.Mis.Rate", "Squash %", "Retired Ins.")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-11s%15.2f%%%11.2f%%%9.2f%% of all\n",
			r.App, r.BrMispredRate, r.SquashPct, r.RetiredInsPct)
	}
	return b.String()
}

// ResourceRow is one row of Table 9.
type ResourceRow struct {
	App                       App
	BrStack, IntRegs, IQ, LSQ OccPair
}

// ResourceTable reproduces Table 9: active protocol-thread occupancy of the
// branch stack, integer registers, integer queue and load/store queue.
type ResourceTable struct {
	Nodes int
	Rows  []ResourceRow
}

// RunResource produces Table 9.
func (s Suite) RunResource(nodes int) *ResourceTable {
	t := &ResourceTable{Nodes: nodes}
	results := s.batch(s.smtpJobs(nodes))
	for i, app := range Apps() {
		res := results[i]
		t.Rows = append(t.Rows, ResourceRow{
			App:     app,
			BrStack: res.OccBrStack,
			IntRegs: res.OccIntRegs,
			IQ:      res.OccIQ,
			LSQ:     res.OccLSQ,
		})
	}
	return t
}

// Render formats Table 9 (peak, mean-of-peaks as in the paper).
func (t *ResourceTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Active protocol thread occupancy, %d nodes (1-way)\n", t.Nodes)
	fmt.Fprintf(&b, "%-11s%12s%12s%10s%10s\n", "App", "Br.Stack", "Int.Regs", "IQ", "LSQ")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-11s%12s%12s%10s%10s\n",
			r.App, r.BrStack, r.IntRegs, r.IQ, r.LSQ)
	}
	return b.String()
}
