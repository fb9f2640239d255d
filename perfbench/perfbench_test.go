package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"smtpsim/internal/core"
)

// benchDefs reads the metric names and units BENCHMARK.json declares.
func benchDefs(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func runTiny(t *testing.T, name string, traced bool, golden goldenDigests) *record {
	t.Helper()
	w, err := newWorkload(name, defaultSeed, tinySize, golden)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := run(context.Background(), w, runOptions{seconds: 0, traced: traced, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rec
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and that the traced runs isolate the layers
// the way the benchmark's design says they do.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layer := benchDefs(t)
	layerRuns := map[string]map[string]metric{}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rec := runTiny(t, name, traced, nil)
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					name, traced, res.Correct, res.Attempted, res.Failed, rec.Failures)
			}
			want := e2e
			if traced {
				want = layer
				layerRuns[name] = res.Metrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				got, ok := res.Metrics[n]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, n, got, unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, got.Value)
				}
			}
		}
	}

	for name, m := range layerRuns {
		var sum float64
		for n, v := range m {
			if strings.HasPrefix(n, "host_share.") {
				sum += v.Value
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: host shares sum to %v", name, sum)
		}
	}
	for _, n := range []string{"shard.quanta", "shard.barrier_waits", "shard.cross_msgs"} {
		if v := layerRuns["paper-sweep"][n].Value; v != 0 {
			t.Errorf("paper-sweep: %s = %v, want 0 (no sharding)", n, v)
		}
		if v := layerRuns["big-machine"][n].Value; v == 0 {
			t.Errorf("big-machine: %s = 0, want > 0", n)
		}
	}
	if v := layerRuns["paper-sweep"]["ppengine.handlers"].Value; v == 0 {
		t.Error("paper-sweep: ppengine.handlers = 0, want > 0")
	}
	if v := layerRuns["big-machine"]["ppengine.handlers"].Value; v != 0 {
		t.Errorf("big-machine: ppengine.handlers = %v, want 0 (SMTp only)", v)
	}
	if v := layerRuns["serve-mix"]["serve.coalesced"].Value; v == 0 {
		t.Error("serve-mix: no joined request was coalesced")
	}
	if v := layerRuns["serve-mix"]["serve.cache_hit_frac"].Value; v == 0 {
		t.Error("serve-mix: no request was a cache hit")
	}
}

// TestCorruptPinFails checks that a digest differing from its pin fails
// the operation.
func TestCorruptPinFails(t *testing.T) {
	w := newPaperSweep(workloadInfo{name: "paper-sweep", seed: defaultSeed}, tinySize)
	label := runLabel(w.pinned[0])
	golden := goldenDigests{"paper-sweep": {fmt.Sprint(defaultSeed): {label: strings.Repeat("0", 64)}}}
	rec := runTiny(t, "paper-sweep", false, golden)
	if rec.Result.Failed == 0 || rec.Result.Correct || rec.FailedFrac == 0 {
		t.Fatalf("corrupted pin for %s: failed=%d correct=%v", label, rec.Result.Failed, rec.Result.Correct)
	}
}

// TestRejectedRequestsFail fills a QueueDepth: 1 server (one run executing,
// one queued) and checks that the 503s a round then gets are failures.
func TestRejectedRequestsFail(t *testing.T) {
	s := newServeMix(workloadInfo{name: "serve-mix", seed: defaultSeed}, tinySize, serveOptions{queueDepth: 1})
	defer s.close()
	ctx := context.Background()
	if err := s.setup(ctx, nil); err != nil {
		t.Fatal(err)
	}
	slow := core.Config{Model: core.SMTp, App: core.Water, Nodes: 32, AppThreads: 1, CPUGHz: 2, Scale: 0.125, Seed: 1}
	holdCtx, release := context.WithCancel(ctx)
	defer release()
	for i, event := range []string{"started", "accepted"} { // one running, then one queued
		cfg := slow
		cfg.Seed += uint64(i)
		body := holdStream(t, holdCtx, s, cfg, event)
		defer body.Close()
	}

	roundCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	ck := newChecker(nil)
	if _, err := s.roundTrip(roundCtx, nil, ck); err != nil {
		t.Fatal(err)
	}
	if attempted, failed := ck.counts(); failed == 0 {
		t.Fatalf("full queue: %d operations, none failed", attempted)
	}
	if notes := ck.notes(); !strings.Contains(strings.Join(notes, "\n"), "status 503") {
		t.Errorf("full queue: failures were not 503s: %v", notes)
	}
	release()
}

// holdStream submits cfg as a streamed request and returns once the given
// event has arrived, leaving the response open.
func holdStream(t *testing.T, ctx context.Context, s *serveMix, cfg core.Config, event string) interface{ Close() error } {
	t.Helper()
	rq, err := newRequest("hold", cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/runs?stream=ndjson", strings.NewReader(string(rq.spec)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if strings.Contains(string(line), `"event":"`+event+`"`) {
			return resp.Body
		}
		if err != nil {
			resp.Body.Close()
			t.Fatalf("stream ended before %q: %v", event, err)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1.5}, [3]float64{0.625, 3.25, 5.875}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.2, 1.05}, [3]float64{0.9, 1.05, 1.2}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestParseTraces reads a `pprof -traces` excerpt.
func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 3.60s, Total samples = 5.66s (157.01%)
-----------+-------------------------------------------------------
      10ms   internal/runtime/maps.ctrlGroup.matchH2 (inline)
             runtime.mapassign_faststr
             smtpsim/internal/stats.(*Registry).register
-----------+-------------------------------------------------------
      1.50s   sort.insertionSort[go.shape.*smtpsim/internal/x.T]
             smtpsim/internal/pipeline.(*Pipeline).Tick
-----------+-------------------------------------------------------
`
	got := parseTraces([]byte(out))
	if len(got) != 2 || got[0].value != 0.01 || got[1].value != 1.5 || len(got[0].frames) != 3 {
		t.Fatalf("parseTraces = %+v", got)
	}
	if p := pkgOf(got[0].frames[0]); !isRuntime(p) {
		t.Errorf("pkgOf(%q) = %q, want a runtime package", got[0].frames[0], p)
	}
	if p := pkgOf(got[1].frames[0]); p != "sort" {
		t.Errorf("pkgOf(%q) = %q, want sort", got[1].frames[0], p)
	}
	if p := pkgOf(got[1].frames[1]); p != "smtpsim/internal/pipeline" {
		t.Errorf("pkgOf(%q) = %q", got[1].frames[1], p)
	}
}
