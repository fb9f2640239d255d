package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smtpsim/internal/core"
	"smtpsim/internal/pipeline"
)

// gate lets tests hold a run inside the worker: configs with the
// "test_gate" tweak block in workload construction until the test closes
// the channel stored here. Stored via atomic.Value because the worker
// goroutine reads it while the test goroutine swaps it.
var gate atomic.Value // of chan struct{}

func init() {
	core.RegisterTweak("test_gate", func(*pipeline.Config) {
		if ch, ok := gate.Load().(chan struct{}); ok && ch != nil {
			<-ch
		}
	})
}

// openGate installs a fresh gate and returns a release func (idempotent
// via t.Cleanup so a failing test cannot strand the worker).
func openGate(t *testing.T) func() {
	t.Helper()
	ch := make(chan struct{})
	gate.Store(ch)
	var once atomic.Bool
	release := func() {
		if once.CompareAndSwap(false, true) {
			close(ch)
		}
	}
	t.Cleanup(release)
	return release
}

const smallSpec = `{"app":"FFT","model":"SMTp","nodes":2,"scale":0.25,"seed":42,"max_cycles":200000}`

func post(t *testing.T, url, spec string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

// statValue fetches one sample from /v1/stats.
func statValue(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := get(t, base+"/v1/stats")
	var m map[string]float64
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("stats not flat JSON: %v\n%s", err, body)
	}
	return m[name]
}

func TestSubmitTwiceCacheHit(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}).Handler())
	defer ts.Close()

	r1, b1 := post(t, ts.URL+"/v1/runs", smallSpec)
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first submit: status %d, X-Cache %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	r2, b2 := post(t, ts.URL+"/v1/runs", smallSpec)
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second submit: status %d, X-Cache %q", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache hit body differs from the original run")
	}
	if hits := statValue(t, ts.URL, "cache.hits"); hits < 1 {
		t.Fatalf("cache.hits = %v, want >= 1", hits)
	}
	if done := statValue(t, ts.URL, "runs.completed"); done != 1 {
		t.Fatalf("runs.completed = %v, want 1 (second submit must not re-run)", done)
	}
}

// TestCacheSurvivesServerReboot: with CacheDir set, a result computed by
// one server instance is a byte-identical cache hit on a fresh instance
// pointed at the same directory — no re-simulation.
func TestCacheSurvivesServerReboot(t *testing.T) {
	dir := t.TempDir()
	ts := httptest.NewServer(New(Options{Workers: 1, CacheDir: dir}).Handler())
	r1, b1 := post(t, ts.URL+"/v1/runs", smallSpec)
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first submit: status %d, X-Cache %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	ts.Close()

	ts2 := httptest.NewServer(New(Options{Workers: 1, CacheDir: dir}).Handler())
	defer ts2.Close()
	r2, b2 := post(t, ts2.URL+"/v1/runs", smallSpec)
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("submit after reboot: status %d, X-Cache %q", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("rebooted cache hit differs from the original run")
	}
	if loaded := statValue(t, ts2.URL, "cache.loaded"); loaded != 1 {
		t.Fatalf("cache.loaded = %v, want 1", loaded)
	}
	if done := statValue(t, ts2.URL, "runs.completed"); done != 0 {
		t.Fatalf("runs.completed = %v on rebooted server, want 0 (must serve from disk)", done)
	}
}

func TestEquivalentSpecsShareCacheEntry(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}).Handler())
	defer ts.Close()

	terse := `{"app":"FFT","model":"SMTp","nodes":2,"seed":7,"max_cycles":100000}`
	explicit := `{"seed":7,"max_cycles":100000,"app":"fft","model":"smtp","nodes":2,` +
		`"app_threads":1,"cpu_ghz":2,"scale":1,"size_for":2,"tweak":"","protocol":"base"}`
	r1, b1 := post(t, ts.URL+"/v1/runs", terse)
	r2, b2 := post(t, ts.URL+"/v1/runs", explicit)
	if r1.Header.Get("X-Cache") != "miss" || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q then %q, want miss then hit",
			r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("equivalent specs returned different bodies")
	}
}

func TestResultsByHash(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 1}).Handler())
	defer ts.Close()

	_, b1 := post(t, ts.URL+"/v1/runs", smallSpec)
	var cfg Config
	if err := json.Unmarshal([]byte(smallSpec), &cfg); err != nil {
		t.Fatal(err)
	}
	h, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	r2, b2 := get(t, fmt.Sprintf("%s/v1/results/%016x", ts.URL, h))
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", r2.StatusCode)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("result by hash differs from the submit response")
	}
	if r3, _ := get(t, ts.URL+"/v1/results/00000000deadbeef"); r3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d, want 404", r3.StatusCode)
	}
	if r4, _ := get(t, ts.URL+"/v1/results/nothex"); r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed hash: status %d, want 400", r4.StatusCode)
	}
}

func TestBadSpecsRejected(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 1}).Handler())
	defer ts.Close()

	bad := []string{
		`{"app":"FFT","modle":"Base"}`,       // misspelled field
		`{"app":"NoSuchApp"}`,                // unknown app
		`{"app":"FFT","tweak":"warp_drive"}`, // unregistered tweak
		`{"app":"FFT","protocol":"mesi"}`,    // unregistered protocol
		`{"app":"FFT","nodes":-1}`,           // invalid value
		`not json`,
		smallSpec + `{"app":"LU"}`,      // a second spec after the first
		smallSpec + ` trailing-garbage`, // garbage after the spec
	}
	for _, spec := range bad {
		if r, body := post(t, ts.URL+"/v1/runs", spec); r.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d (%s), want 400", spec, r.StatusCode, body)
		}
	}
	if r, _ := post(t, ts.URL+"/v1/runs?stream=telepathy", smallSpec); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown stream mode: status %d, want 400", r.StatusCode)
	}
	if r, _ := get(t, ts.URL+"/v1/runs"); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/runs: status %d, want 405", r.StatusCode)
	}
}

// readStream collects the JSON documents of one NDJSON stream.
func readStream(t *testing.T, resp *http.Response) []string {
	t.Helper()
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sc.Text() != "" {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return lines
}

// eventOf extracts the "event" discriminator of one stream frame.
func eventOf(t *testing.T, line string) string {
	t.Helper()
	var f struct {
		Event string `json:"event"`
	}
	if err := json.Unmarshal([]byte(line), &f); err != nil {
		t.Fatalf("frame not JSON: %v\n%s", err, line)
	}
	return f.Event
}

func TestStreamNDJSONAndCachedReplay(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 1}).Handler())
	defer ts.Close()

	spec := `{"app":"FFT","model":"SMTp","nodes":2,"scale":0.25,"seed":9,` +
		`"max_cycles":100000,"metrics_interval":10000}`
	resp, err := http.Post(ts.URL+"/v1/runs?stream=ndjson", "application/json",
		strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	live := readStream(t, resp)
	counts := map[string]int{}
	for _, l := range live {
		counts[eventOf(t, l)]++
	}
	if counts["accepted"] != 1 || counts["started"] != 1 || counts["done"] != 1 {
		t.Fatalf("live stream events = %v, want one accepted/started/done", counts)
	}
	if counts["series"] != 1 || counts["sample"] < 2 {
		t.Fatalf("live stream events = %v, want a series header and samples", counts)
	}
	if eventOf(t, live[0]) != "accepted" || eventOf(t, live[len(live)-1]) != "done" {
		t.Fatal("stream does not start with accepted / end with done")
	}

	// The replay from cache must emit the series and done frames
	// byte-identically; only the admission frames differ.
	resp2, err := http.Post(ts.URL+"/v1/runs?stream=ndjson", "application/json",
		strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("replay X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	replay := readStream(t, resp2)
	trim := func(lines []string) []string {
		var out []string
		for _, l := range lines {
			switch eventOf(t, l) {
			case "accepted", "started":
			default:
				out = append(out, l)
			}
		}
		return out
	}
	a, b := trim(live), trim(replay)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("cached replay frames differ from the live stream")
	}

	// SSE framing of the same (cached) run.
	resp3, err := http.Post(ts.URL+"/v1/runs?stream=sse", "application/json",
		strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp3.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	raw, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if l != "" && !strings.HasPrefix(l, "data: ") {
			t.Fatalf("SSE line without data: prefix: %q", l)
		}
	}
}

// gated is a small run spec that blocks in the worker until the test's
// gate opens.
func gated(seed int) string {
	return fmt.Sprintf(`{"app":"FFT","model":"SMTp","nodes":2,"scale":0.25,`+
		`"seed":%d,"max_cycles":50000,"tweak":"test_gate"}`, seed)
}

type reply struct {
	resp *http.Response
	body []byte
}

// fillQueue brings a Workers: 1, QueueDepth: 1 server to a full queue: a
// streamed gated run holds the worker (its response is returned, read up
// to "started") and a second gated run waits in the queue (its reply
// arrives on the channel once the gate opens).
func fillQueue(t *testing.T, url string) (*http.Response, <-chan reply) {
	t.Helper()
	// Occupy the worker: stream the first run and wait for "started", which
	// the worker emits just before blocking on the gate.
	resp1, err := http.Post(url+"/v1/runs?stream=ndjson", "application/json",
		strings.NewReader(gated(1)))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp1.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before start: %v", err)
		}
		if eventOf(t, strings.TrimSpace(line)) == "started" {
			break
		}
	}

	// Fill the queue with a second distinct run.
	second := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/v1/runs", "application/json",
			strings.NewReader(gated(2)))
		if err != nil {
			second <- reply{}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		second <- reply{resp, body}
	}()

	// Wait until the second run is admitted (queue depth reaches 2:
	// the in-flight run plus the queued one).
	deadline := time.Now().Add(10 * time.Second)
	for statValue(t, url, "queue.depth") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second run never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	return resp1, second
}

func TestQueueFullRejectsAndDedupCoalesces(t *testing.T) {
	release := openGate(t)
	ts := httptest.NewServer(New(Options{Workers: 1, QueueDepth: 1}).Handler())
	defer ts.Close()
	defer release()

	resp1, second := fillQueue(t, ts.URL)
	deadline := time.Now().Add(10 * time.Second)

	// A third distinct run finds the queue full: fail-fast 503.
	r3, _ := post(t, ts.URL+"/v1/runs", gated(3))
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third run: status %d, want 503", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Resubmitting the *same* spec as the gated in-flight run is not
	// rejected — it coalesces onto that run instead of queueing.
	joined := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
			strings.NewReader(gated(1)))
		if err != nil {
			joined <- reply{}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		joined <- reply{resp, body}
	}()
	for statValue(t, ts.URL, "runs.coalesced") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("identical spec never coalesced")
		}
		time.Sleep(time.Millisecond)
	}

	release()
	stream1 := readStream(t, resp1) // drain the gated stream to completion
	if eventOf(t, stream1[len(stream1)-1]) != "done" {
		t.Fatal("gated stream did not finish with done")
	}
	rep2 := <-second
	if rep2.resp == nil || rep2.resp.StatusCode != http.StatusOK {
		t.Fatal("queued run failed after release")
	}
	repJ := <-joined
	if repJ.resp == nil || repJ.resp.StatusCode != http.StatusOK {
		t.Fatal("coalesced run failed after release")
	}
	if repJ.resp.Header.Get("X-Cache") != "join" {
		t.Fatalf("coalesced X-Cache = %q, want join", repJ.resp.Header.Get("X-Cache"))
	}
	if rejected := statValue(t, ts.URL, "queue.rejected"); rejected != 1 {
		t.Fatalf("queue.rejected = %v, want 1", rejected)
	}
	if completed := statValue(t, ts.URL, "runs.completed"); completed != 2 {
		t.Fatalf("runs.completed = %v, want 2 (join must not re-run)", completed)
	}
}

// TestRejectedAdmissionNeverStrandsJoiners: identical submissions racing
// into a full queue must each get an answer — 200, or 503 with Retry-After
// — and never join a task whose admission failed, which no worker would
// ever finish.
func TestRejectedAdmissionNeverStrandsJoiners(t *testing.T) {
	release := openGate(t)
	srv := New(Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	resp1, second := fillQueue(t, ts.URL)

	// Bursts of identical submissions: each one that wins the race to the
	// in-flight map is rejected, and the rest must not be left waiting on it.
	client := &http.Client{Timeout: 10 * time.Second}
	const rounds, burst = 20, 8
	for round := 0; round < rounds; round++ {
		errs := make(chan error, burst)
		for i := 0; i < burst; i++ {
			go func() {
				resp, err := client.Post(ts.URL+"/v1/runs", "application/json",
					strings.NewReader(gated(100+round)))
				if err != nil {
					errs <- fmt.Errorf("no answer: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					errs <- nil
				case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
					errs <- nil
				default:
					errs <- fmt.Errorf("status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
				}
			}()
		}
		for i := 0; i < burst; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	// The same race without the HTTP stack spacing the callers out: while
	// the queue is full no task can be admitted, so there is nothing to join.
	var joins atomic.Int64
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				if _, joined, _ := srv.submitOrJoin(Config{}, "00000000000000ff"); joined {
					joins.Add(1)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := joins.Load(); n != 0 {
		t.Fatalf("%d submissions joined a task whose admission was rejected", n)
	}

	release()
	readStream(t, resp1)
	if rep := <-second; rep.resp == nil || rep.resp.StatusCode != http.StatusOK {
		t.Fatal("queued run failed after release")
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	release := openGate(t)
	s := New(Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer release()

	spec := `{"app":"FFT","model":"SMTp","nodes":2,"scale":0.25,"seed":11,` +
		`"max_cycles":50000,"tweak":"test_gate"}`
	resp1, err := http.Post(ts.URL+"/v1/runs?stream=ndjson", "application/json",
		strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp1.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended before start: %v", err)
		}
		if eventOf(t, strings.TrimSpace(line)) == "started" {
			break
		}
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if r, _ := get(t, ts.URL+"/healthz"); r.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if r, _ := post(t, ts.URL+"/v1/runs", smallSpec); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", r.StatusCode)
	}

	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	stream1 := readStream(t, resp1)
	if eventOf(t, stream1[len(stream1)-1]) != "done" {
		t.Fatal("in-flight run was not finished by the drain")
	}
}

func TestSchedulerHardCancel(t *testing.T) {
	// A run that only finishes when its context is cancelled models a
	// simulation stuck mid-flight: an expired drain deadline must cancel
	// the scheduler context and still retire the task.
	s := newScheduler(1, 4, func(ctx context.Context, tk *task) {
		<-ctx.Done()
		tk.err = ctx.Err()
		close(tk.done)
	})
	tk := newTask(Config{}, "00")
	if err := s.submit(tk); err != nil {
		t.Fatal(err)
	}
	<-tk.started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already expired: drain must hard-cancel
	if err := s.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain = %v, want context.Canceled", err)
	}
	<-tk.done
	if !errors.Is(tk.err, context.Canceled) {
		t.Fatalf("task err = %v, want context.Canceled", tk.err)
	}
	if err := s.submit(newTask(Config{}, "01")); !errors.Is(err, errDraining) {
		t.Fatalf("submit after drain = %v, want errDraining", err)
	}
}
