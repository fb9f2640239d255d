package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"smtpsim/internal/sim"
)

// totalSkipped accumulates the elided-cycle counts of every skipping-kernel
// run in TestKernelDifferential, so the suite can assert the fast path was
// actually exercised (a kernel that never skips would pass the equality
// checks vacuously).
var totalSkipped atomic.Uint64

// TestKernelDifferential pins the tentpole invariant of the event-driven
// kernel: cycle skipping is observably invisible. Every configuration runs
// twice — once on the skipping kernel, once on the always-tick reference
// kernel — and must produce the same cycle count and byte-identical
// WriteRunJSON output (the full metrics snapshot, every counter and peak)
// and, where it records one, the same MetricsInterval time series.
func TestKernelDifferential(t *testing.T) {
	type cse struct {
		app      App
		model    Model
		nodes    int
		way      int
		ghz      float64   // 0 = the 2 GHz default
		interval sim.Cycle // MetricsInterval; 0 = no series
	}
	var cases []cse
	if testing.Short() {
		// One protocol-processor model and SMTp, two apps with different
		// memory behaviour.
		for _, app := range []App{FFT, Radix} {
			for _, model := range []Model{Base, SMTp} {
				cases = append(cases, cse{app: app, model: model, nodes: 4, way: 1})
			}
		}
	} else {
		for _, app := range Apps() {
			for _, model := range Models() {
				cases = append(cases, cse{app: app, model: model, nodes: 4, way: 1})
			}
		}
	}
	cases = append(cases,
		// Larger machine and multi-threaded cores exercise the
		// sync-manager wake-ups and cross-node quiescence differently.
		cse{app: FFT, model: SMTp, nodes: 8, way: 1},
		cse{app: Ocean, model: SMTp, nodes: 4, way: 2},
		cse{app: LU, model: Int512KB, nodes: 4, way: 2},
		// At 4 GHz the controllers tick at other periods (Base's 400 MHz
		// controller every 10 cycles instead of 5).
		cse{app: FFT, model: Base, nodes: 4, way: 1, ghz: 4},
		cse{app: FFT, model: SMTp, nodes: 4, way: 1, ghz: 4},
		// The series samples every metric mid-run, so lazily deferred
		// ticks must be settled before each sample.
		cse{app: FFT, model: Base, nodes: 4, way: 1, interval: 1000},
		cse{app: FFT, model: SMTp, nodes: 4, way: 1, interval: 1000},
	)

	// The group Run returns only after its parallel children finish, so the
	// skipped-cycles assertion below observes every run.
	t.Run("cases", func(t *testing.T) {
		for _, c := range cases {
			c := c
			name := fmt.Sprintf("%s_%s_%dn%dw", c.app, c.model, c.nodes, c.way)
			if c.ghz != 0 {
				name += fmt.Sprintf("_%gGHz", c.ghz)
			}
			if c.interval != 0 {
				name += fmt.Sprintf("_series%d", c.interval)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := Config{
					Model: c.model, App: c.app,
					Nodes: c.nodes, AppThreads: c.way,
					CPUGHz: c.ghz, Scale: 0.25, Seed: 42,
					MetricsInterval: c.interval,
				}
				run := func(reference bool) (*Result, []byte) {
					cfg := cfg
					cfg.ReferenceKernel = reference
					r := Run(cfg)
					if r.Err != nil || !r.Completed {
						t.Fatalf("reference=%v: err=%v completed=%v", reference, r.Err, r.Completed)
					}
					var b bytes.Buffer
					if err := WriteRunJSON(&b, r); err != nil {
						t.Fatal(err)
					}
					return r, b.Bytes()
				}
				skip, skipJSON := run(false)
				ref, refJSON := run(true)
				if skip.Cycles != ref.Cycles {
					t.Errorf("cycle counts diverge: skipping %d, reference %d", skip.Cycles, ref.Cycles)
				}
				if ref.SkippedCycles != 0 {
					t.Errorf("reference kernel reports %d skipped cycles", ref.SkippedCycles)
				}
				totalSkipped.Add(skip.SkippedCycles)
				t.Logf("cycles=%d skipped=%d (%.1f%%) skip=%v ref=%v",
					skip.Cycles, skip.SkippedCycles,
					100*float64(skip.SkippedCycles)/float64(skip.Cycles),
					skip.WallTime, ref.WallTime)
				if !bytes.Equal(skipJSON, refJSON) {
					t.Fatalf("run JSON diverges between kernels:\n%s", firstJSONDiff(skipJSON, refJSON))
				}
				if c.interval != 0 {
					if skip.Series.Len() == 0 {
						t.Fatal("the run recorded no series")
					}
					var skipCSV, refCSV bytes.Buffer
					if err := skip.Series.WriteCSV(&skipCSV); err != nil {
						t.Fatal(err)
					}
					if err := ref.Series.WriteCSV(&refCSV); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(skipCSV.Bytes(), refCSV.Bytes()) {
						t.Fatalf("series diverges between kernels: %s", firstCSVDiff(skipCSV.Bytes(), refCSV.Bytes()))
					}
				}
			})
		}
	})

	// Require that skipping happened somewhere: the differential only
	// proves invisibility of skips that actually occur.
	if !t.Failed() && totalSkipped.Load() == 0 {
		t.Fatal("no configuration elided any cycles; the fast path is dead")
	}
	t.Logf("total elided cycles across configurations: %d", totalSkipped.Load())
}

// firstCSVDiff names the columns of the first row where two series CSVs
// differ.
func firstCSVDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	if len(al) != len(bl) {
		return fmt.Sprintf("%d rows vs %d", len(al), len(bl))
	}
	names := bytes.Split(al[0], []byte(","))
	for i := 1; i < len(al); i++ {
		av, bv := bytes.Split(al[i], []byte(",")), bytes.Split(bl[i], []byte(","))
		var cols []string
		for j := range av {
			if j < len(bv) && j < len(names) && !bytes.Equal(av[j], bv[j]) {
				cols = append(cols, string(names[j]))
			}
		}
		if len(cols) > 0 {
			return fmt.Sprintf("row %d (cycle %s): %d columns differ, first %q", i, av[0], len(cols), cols[0])
		}
	}
	return "rows differ"
}

// firstJSONDiff renders the first line where two JSON documents differ.
func firstJSONDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  skipping:  %s\n  reference: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("documents differ in length: %d vs %d lines", len(al), len(bl))
}
