package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain prints, per workload and metric, the median and quartiles of
// each set of runs, and for two sets the change and the pairwise wins. It
// exits 1 when a set's spread exceeds a metric's bound or the second set's
// median is worse than the first's by more than it.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition (bounds and directions)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] <runs-A> [<runs-B>]")
		return 2
	}
	spec, err := readBenchSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	var sets [][]record
	for _, path := range fs.Args() {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
		sets = append(sets, recs)
	}
	if !compareSets(os.Stdout, spec, sets) {
		return 1
	}
	return 0
}

func readBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads the record lines of a file of concatenated run
// outputs; every other line is skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"workload"`) {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareSets prints the comparison and reports whether every check held.
func compareSets(w *os.File, spec *benchSpec, sets [][]record) bool {
	type key struct {
		workload string
		trace    int
	}
	better, bound := map[string]string{}, map[string]float64{}
	for _, m := range spec.EndToEnd {
		better[m.Name], bound[m.Name] = m.Better, m.Bound
	}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}
	var order []key
	grouped := make([]map[key][]record, len(sets))
	for i, recs := range sets {
		grouped[i] = map[key][]record{}
		for _, r := range recs {
			k := key{r.Workload, r.Trace}
			if i == 0 && len(grouped[0][k]) == 0 {
				order = append(order, k)
			}
			grouped[i][k] = append(grouped[i][k], r)
		}
	}
	ok := true
	for _, k := range order {
		fmt.Fprintf(w, "\n== %s (trace %d)\n", k.workload, k.trace)
		fmt.Fprintf(w, "%-28s %5s %12s %12s %12s %8s", "metric", "set", "median", "q1", "q3", "spread")
		if len(sets) == 2 {
			fmt.Fprintf(w, " %9s %7s", "change", "wins")
		}
		fmt.Fprintf(w, " %6s %s\n", "bound", "verdict")
		first := grouped[0][k]
		names := sortedKeys(first[0].Result.Metrics)
		for _, name := range names {
			var meds [2]float64
			var vals [2][]float64
			for i := range sets {
				for _, r := range grouped[i][k] {
					vals[i] = append(vals[i], r.Result.Metrics[name].Value)
				}
				if len(vals[i]) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(vals[i])
				meds[i] = q2
				spread := ratio(q3-q1, q2)
				verdict := ""
				if b, has := bound[name]; has && spread > b {
					verdict, ok = "SPREAD>BOUND", false
				} else if has && spread > b/3 {
					verdict = "spread>bound/3"
				}
				fmt.Fprintf(w, "%-28s %5s %12.6g %12.6g %12.6g %8.4f", name, string(rune('A'+i)), q2, q1, q3, spread)
				if len(sets) == 2 {
					if i == 1 {
						change := ratio(meds[1]-meds[0], meds[0])
						wins := pairWins(vals[0], vals[1], better[name])
						fmt.Fprintf(w, " %+8.2f%% %3d/%-3d", 100*change, wins, min(len(vals[0]), len(vals[1])))
						if b, has := bound[name]; has && worse(change, better[name]) > b {
							verdict, ok = strings.TrimSpace(verdict+" WORSE>BOUND"), false
						}
					} else {
						fmt.Fprintf(w, " %9s %7s", "", "")
					}
				}
				fmt.Fprintf(w, " %6s %s\n", boundText(bound, name), verdict)
			}
		}
		fails := 0
		for i := range sets {
			for _, r := range grouped[i][k] {
				fails += r.Result.Failed
			}
		}
		if fails > 0 {
			fmt.Fprintf(w, "failed operations: %d\n", fails)
			ok = false
		}
	}
	return ok
}

func boundText(bound map[string]float64, name string) string {
	if b, ok := bound[name]; ok {
		return fmt.Sprintf("%.3g", b)
	}
	return "-"
}

// worse is how much worse a relative change is in the metric's direction.
func worse(change float64, better string) float64 {
	if better == "higher" {
		return -change
	}
	return change
}

// pairWins counts pairs (a[i], b[i]) where b is better than a.
func pairWins(a, b []float64, better string) int {
	wins := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if (better == "higher" && b[i] > a[i]) || (better != "higher" && b[i] < a[i]) {
			wins++
		}
	}
	return wins
}
