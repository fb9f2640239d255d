// Command perfbench is the smtpsim benchmark. It runs one workload for a
// fixed wall-clock budget, checks every simulated result against pinned
// digests (or, for seeds without pins, against completion, coherence and
// cross-run identity), and prints as the last line of standard output one
// JSON object: the end-to-end metrics of BENCHMARK.json with --trace 0, the
// per-layer metrics with --trace 1. README.md describes the workloads and
// the metric → layer → end-to-end map.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//	perfbench compare [--bench BENCHMARK.json] <runs-A> [<runs-B>]
//	perfbench pin [--golden perfbench/golden.json]
//
// The line before the result is a record of the run (workload, seed, host,
// sample counts, result); compare reads files of such lines.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeed is the seed of the paper's experiments (paperbench -seed).
const defaultSeed = 42

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "pin":
			os.Exit(pinMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed: sets Config.Seed and the serve-mix request stream")
	seconds := fs.Int("seconds", 10, "wall-clock seconds of timed iterations (0 = one iteration)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for run records, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, *seed, fullSize, golden)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := runOptions{seconds: *seconds, traced: *trace == 1, outDir: *out}
	rec, err := run(ctx, w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeRecord(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo describes the machine a run was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// record is everything one run reports. It is printed (and written to the
// output directory) before the result line, so a set of runs can be
// compared later without the caller keeping anything but stdout.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      int                `json:"trace"`
	Seconds    int                `json:"seconds"`
	Host       hostInfo           `json:"host"`
	Samples    map[string]int     `json:"samples"`
	Raw        map[string]float64 `json:"raw"`
	Setups     []float64          `json:"setups_s"`
	Walls      []float64          `json:"iteration_walls_s"`
	Cals       []float64          `json:"calibrations_s"` // before and after the set-ups, then after each iteration
	FailedFrac float64            `json:"failed_frac"`
	Failures   []string           `json:"failures,omitempty"`
	Result     result             `json:"result"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// writeRecord prints the record line, then the result line.
func writeRecord(f *os.File, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	res, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", line, res)
	return err
}

// errNoWorkload reports an unknown --workload value.
var errNoWorkload = errors.New("unknown workload")
