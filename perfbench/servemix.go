package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"smtpsim/internal/core"
	"smtpsim/internal/serve"
	"smtpsim/internal/workload"
)

// serveOptions adjusts the server under test; the zero value is the
// benchmark's configuration.
type serveOptions struct {
	queueDepth int // 0 = the server's default
}

// serveCacheBytes bounds the server's result cache. A round publishes about
// 0.4 MB of results; at 2 MiB the cache fills within a few rounds and then
// evicts, so peak RSS does not grow with the number of rounds a run fits.
// It still holds several rounds, so no entry a round reuses is evicted
// before the round ends.
const serveCacheBytes = 2 << 20

// request is one spec a client sends. section names the paper experiment
// (paperbench section) it belongs to.
type request struct {
	section string
	cfg     core.Config
	spec    []byte
	stream  bool
}

type response struct {
	status int
	cache  string // X-Cache: hit, miss or join
	body   []byte // result document (non-streamed requests)
	done   streamEvent
	lat    time.Duration // send to last byte
	wait   time.Duration // streamed: accepted → started
	err    error
}

type streamEvent struct {
	Event     string `json:"event"`
	Cycles    uint64 `json:"cycles"`
	Completed bool   `json:"completed"`
}

// keptRun is a first-round spec the probe re-simulates: its server result
// digest (when a client received the document) and simulated cycles.
type keptRun struct {
	cfg    core.Config
	digest string
	cycles uint64
}

// cachedRun is a spec the server has cached, with the document it served.
type cachedRun struct {
	cfg  core.Config
	body []byte
}

// serveMix drives an in-process simulation server over loopback with two
// closed-loop clients that replay one group of the paper's experiments per
// round: paperbench's Figure 5 and Tables 7, 8 and 9, which all run the
// same 1-way machines. Client 0 reproduces the figure, client 1 the three
// tables; both start together. Every spec the tables need is one of the
// figure's, so the mix of hits, misses and joins is the overlap the paper's
// own experiments have, and each round simulates the figure's runs once.
// Each round uses a new Config.Seed, so its runs are new to the cache.
type serveMix struct {
	workloadInfo
	opts  serveOptions
	apps  []core.App
	nodes int
	scale float64

	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	round                      int64
	verified                   bool
	hitLat, missLat, queueWait []float64 // ms
	reqs                       int
	reqWall                    time.Duration
	counts                     struct{ rounds, reqs, hits, joins, rejected int } // traced rounds only
	keep                       []keptRun
	lastTables                 []cachedRun // the last round's Table 8 documents
	handlerUS                  float64
}

func newServeMix(info workloadInfo, sz size, opts serveOptions) *serveMix {
	s := &serveMix{workloadInfo: info, opts: opts, apps: core.Apps(), nodes: 4, scale: 0.05}
	if sz == tinySize {
		s.apps, s.nodes, s.scale = s.apps[:2], 1, 0.02
	}
	for _, rq := range s.figure(s.seed) {
		s.pinned = append(s.pinned, rq.cfg)
	}
	return s
}

func (s *serveMix) info() workloadInfo { return s.workloadInfo }

// roundSeed is round r's Config.Seed: the workload seed for the first round,
// so golden.json pins it, and a mix of both for the others.
func (s *serveMix) roundSeed(r int64) uint64 {
	if r == 0 {
		return s.seed
	}
	x := s.seed*0x9e3779b97f4a7c15 + uint64(r)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (s *serveMix) cfg(model core.Model, app core.App, seed uint64) core.Config {
	return core.Config{Model: model, App: app, Nodes: s.nodes, AppThreads: 1, CPUGHz: 2, Scale: s.scale, Seed: seed}
}

// figure is Figure 5's requests in the order RunFigure submits its jobs:
// every app's Base run, then the other models app by app. The figure's
// client streams, as a user following a sweep's progress would.
func (s *serveMix) figure(seed uint64) []request {
	var out []request
	for _, app := range s.apps {
		out = append(out, request{section: "serve.f5", cfg: s.cfg(core.Base, app, seed), stream: true})
	}
	for _, app := range s.apps {
		for _, model := range core.Models() {
			if model != core.Base {
				out = append(out, request{section: "serve.f5", cfg: s.cfg(model, app, seed), stream: true})
			}
		}
	}
	return out
}

// tables is Tables 7, 8 and 9's requests in paperbench's order: RunOccupancy's
// four models app by app, then the SMTp run of every app twice (RunProtoChar
// and RunResource each request it).
func (s *serveMix) tables(seed uint64) []request {
	var out []request
	for _, app := range s.apps {
		for _, model := range []core.Model{core.Base, core.IntPerfect, core.Int512KB, core.SMTp} {
			out = append(out, request{section: "serve.t7", cfg: s.cfg(model, app, seed)})
		}
	}
	for _, section := range []string{"serve.t8", "serve.t9"} {
		for _, app := range s.apps {
			out = append(out, request{section: section, cfg: s.cfg(core.SMTp, app, seed)})
		}
	}
	return out
}

// setup boots a fresh server on a loopback listener and sends it Table 8's
// requests (every app's SMTp run) at a seed no round uses, so the server's
// first workload generation for every app and its first machine builds
// happen before the first round.
func (s *serveMix) setup(ctx context.Context, tr *tracer) error {
	root := tr.begin("setup", -1, -1, 0)
	defer tr.end(root)
	tr.wrap("serve.New", -1, root, 0, func() {
		s.srv = serve.New(serve.Options{Workers: 1, QueueDepth: s.opts.queueDepth, CacheBytes: serveCacheBytes})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}

	for _, app := range s.apps {
		rq, err := newRequest("serve.warm", s.cfg(core.SMTp, app, ^s.seed), false)
		if err != nil {
			return err
		}
		id := tr.begin(rq.section, -1, root, 0)
		resp := s.do(ctx, rq)
		tr.end(id)
		if resp.err != nil || resp.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %v", runLabel(rq.cfg), resp.status, resp.err)
		}
	}
	return nil
}

// stop shuts the current server down and waits for it.
func (s *serveMix) stop() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // on timeout, Drain below aborts the runs still holding connections
	_ = s.srv.Drain(ctx)   // an expired ctx cancels in-flight runs, which is what stop wants
	<-s.served
	s.client.CloseIdleConnections()
	s.hs = nil
}

func (s *serveMix) close() { s.stop() }

func newRequest(section string, cfg core.Config, stream bool) (request, error) {
	spec, err := cfg.MarshalJSON()
	return request{section: section, cfg: cfg, spec: spec, stream: stream}, err
}

// do sends one request and reads the response to its last byte.
func (s *serveMix) do(ctx context.Context, rq request) response {
	url := s.url + "/v1/runs"
	if rq.stream {
		url += "?stream=ndjson"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(rq.spec))
	if err != nil {
		return response{err: err}
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	out := response{status: resp.StatusCode, cache: resp.Header.Get("X-Cache")}
	if !rq.stream || resp.StatusCode != http.StatusOK {
		out.body, out.err = io.ReadAll(resp.Body)
		out.lat = time.Since(t0)
		return out
	}
	br := bufio.NewReader(resp.Body)
	var accepted time.Time
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev streamEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				out.err = fmt.Errorf("stream frame: %w", jerr)
			}
			switch ev.Event {
			case "accepted":
				accepted = time.Now()
			case "started":
				out.wait = time.Since(accepted)
			case "done":
				out.done = ev
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			out.err = err
			break
		}
	}
	out.lat = time.Since(t0)
	return out
}

// roundTrip runs one round: both clients send their request lists closed
// loop, and the round's wall time is until both have finished.
func (s *serveMix) roundTrip(ctx context.Context, tr *tracer, ck *checker) (iteration, error) {
	r := s.round
	s.round++
	seed := s.roundSeed(r)
	lists := [workers][]request{s.figure(seed), s.tables(seed)}
	for c := range lists {
		for i := range lists[c] {
			spec, err := lists[c][i].cfg.MarshalJSON()
			if err != nil {
				return iteration{}, err
			}
			lists[c][i].spec = spec
		}
	}

	var resps [workers][]response
	root := tr.begin("round", r, -1, 0)
	t0 := time.Now()
	done := make(chan struct{}, workers)
	for c := range lists {
		resps[c] = make([]response, len(lists[c]))
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for i, rq := range lists[c] {
				id := tr.begin(rq.section, r*1000+int64(c*100+i), root, c)
				resps[c][i] = s.do(ctx, rq)
				tr.end(id)
			}
		}(c)
	}
	for range lists {
		<-done
	}
	it := iteration{wall: time.Since(t0)}
	tr.end(root)

	// ref is the first answer for each spec; every later answer for the
	// same spec, whether a hit, a join or a miss, must agree with it.
	type answer struct {
		cfg    core.Config
		cycles uint64
		body   []byte
	}
	ref := map[string]*answer{}
	var order []string
	for c := range lists {
		for i, rq := range lists[c] {
			resp := resps[c][i]
			label := runLabel(rq.cfg)
			desc := rq.section + " " + label
			if resp.err != nil || resp.status != http.StatusOK {
				ck.op(false, "%s: status %d: %v", desc, resp.status, resp.err)
				if resp.status == http.StatusServiceUnavailable && tr != nil {
					s.counts.rejected++
				}
				continue
			}
			ev := resp.done
			if !rq.stream {
				if err := json.Unmarshal(resp.body, &ev); err != nil {
					ck.op(false, "%s: result document: %v", desc, err)
					continue
				}
			}
			a := ref[label]
			if a == nil {
				a = &answer{cfg: rq.cfg, cycles: ev.Cycles}
				ref[label] = a
				order = append(order, label)
			}
			same := ev.Cycles == a.cycles
			if resp.body != nil {
				if a.body == nil {
					a.body = resp.body
				}
				same = same && bytes.Equal(resp.body, a.body)
			}
			ok := ev.Completed && ev.Cycles > 0 && same
			switch resp.cache {
			case "hit":
				s.hitLat = append(s.hitLat, ms(resp.lat))
			case "miss", "join":
				s.missLat = append(s.missLat, ms(resp.lat))
				if rq.stream && resp.cache == "miss" {
					s.queueWait = append(s.queueWait, ms(resp.wait))
				}
			default:
				ok = false
			}
			ck.op(ok, "%s: X-Cache %q, completed=%v after %d cycles, agrees with the spec's first answer: %v",
				desc, resp.cache, ev.Completed, ev.Cycles, same)
			if tr != nil {
				s.counts.reqs++
				switch resp.cache {
				case "hit":
					s.counts.hits++
				case "join":
					s.counts.joins++
				}
			}
		}
	}
	s.lastTables = s.lastTables[:0]
	for _, label := range order {
		a := ref[label]
		it.nodeCycles += float64(a.cycles) * float64(a.cfg.Nodes)
		if r == 0 && a.body != nil {
			d := digestBytes(a.body)
			ck.op(ck.expect(label, d), "%s: server digest %.12s differs from the pin", label, d)
		}
		if r == 0 {
			k := keptRun{cfg: a.cfg, cycles: a.cycles}
			if a.body != nil {
				k.digest = digestBytes(a.body)
			}
			s.keep = append(s.keep, k)
		}
		if a.cfg.Model == core.SMTp && a.body != nil {
			s.lastTables = append(s.lastTables, cachedRun{cfg: a.cfg, body: a.body})
		}
	}
	s.reqs += len(lists[0]) + len(lists[1])
	s.reqWall += it.wall
	if tr != nil {
		s.counts.rounds++
	}
	if !s.verified {
		s.verified = true
		s.verifyTables(ctx, ck)
	}
	return it, ctx.Err()
}

// verifyTables re-runs the first round's Table 8 specs through core and
// checks each run (and its pin) against the server's document.
func (s *serveMix) verifyTables(ctx context.Context, ck *checker) {
	for _, c := range s.lastTables {
		d := ck.result(runLabel(c.cfg), core.RunContext(ctx, c.cfg))
		ck.op(d != "" && d == digestBytes(c.body), "%s: server body differs from core.RunContext", runLabel(c.cfg))
	}
}

func (s *serveMix) iterate(ctx context.Context, ck *checker) (iteration, error) {
	return s.roundTrip(ctx, nil, ck)
}

func (s *serveMix) traced(ctx context.Context, tr *tracer, op int64, ck *checker) (iteration, *layerCounts, error) {
	it, err := s.roundTrip(ctx, tr, ck)
	return it, &layerCounts{}, err
}

// handlerReps is how many times the probe serves each cached spec in process.
const handlerReps = 20

// probe times the handler alone on hits (no transport), then re-simulates
// the first round's specs through the layer entry points: their digests
// (or, for specs only streamed, their cycles) must equal the server's, and
// they supply the work counts.
func (s *serveMix) probe(ctx context.Context, tr *tracer, ck *checker, lc *layerCounts, m map[string]float64) error {
	h := s.srv.Handler()
	var total time.Duration
	for rep := 0; rep < handlerReps; rep++ {
		for _, c := range s.lastTables {
			spec, err := c.cfg.MarshalJSON()
			if err != nil {
				return err
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(spec))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			id := tr.begin("serve.ServeHTTP", -3, -1, 0)
			h.ServeHTTP(rec, req)
			tr.end(id)
			total += time.Since(t0)
			ck.op(rec.Code == http.StatusOK && rec.Header().Get("X-Cache") == "hit" && bytes.Equal(rec.Body.Bytes(), c.body),
				"ServeHTTP %s: status %d, X-Cache %q", runLabel(c.cfg), rec.Code, rec.Header().Get("X-Cache"))
		}
	}
	if n := handlerReps * len(s.lastTables); n > 0 {
		s.handlerUS = float64(total.Nanoseconds()) / 1e3 / float64(n)
	}

	for i, k := range s.keep {
		var w *workload.Workload
		tr.wrap("workload.Build", int64(-10-i), -1, 0, func() { w = core.BuildWorkload(k.cfg) })
		r := runLayers(ctx, tr, int64(-10-i), -1, 0, k.cfg, w)
		d := ck.result(runLabel(k.cfg), r)
		if k.digest != "" {
			ck.op(d != "" && d == k.digest, "%s: server body differs from the layer run", runLabel(k.cfg))
		} else {
			ck.op(uint64(r.Cycles) == k.cycles, "%s: server reported %d cycles, the layer run %d", runLabel(k.cfg), k.cycles, r.Cycles)
		}
		lc.add(r)
		if i == 0 {
			n, err := snapshotProbe(ctx, tr, ck, -2, k.cfg, w, r.Cycles)
			if err != nil {
				return err
			}
			m["snapshot.bytes"] = float64(n)
		}
	}
	return ctx.Err()
}

// report adds the client-side latencies and the traced rounds' admission
// counts, as the clients saw them in X-Cache and the status.
func (s *serveMix) report(ctx context.Context, m map[string]float64, samples map[string]int) error {
	for _, p := range []struct {
		name string
		v    []float64
		q    float64
	}{
		{"hit_p50", s.hitLat, 0.5}, {"hit_p99", s.hitLat, 0.99},
		{"miss_p50", s.missLat, 0.5}, {"miss_p90", s.missLat, 0.9},
	} {
		m["serve."+p.name+"_ms"] = percentile(p.v, p.q)
		samples[p.name+"_beyond"] = beyond(p.v, p.q)
	}
	samples["hit"], samples["miss"], samples["queue_wait"] = len(s.hitLat), len(s.missLat), len(s.queueWait)
	m["serve.queue_wait_ms"] = median(s.queueWait)
	if s.reqWall > 0 {
		m["serve.req_per_s"] = float64(s.reqs) / s.reqWall.Seconds()
	}
	if s.handlerUS > 0 {
		m["serve.transport_us"] = percentile(s.hitLat, 0.5)*1e3 - s.handlerUS
	}
	if t := s.counts; t.rounds > 0 {
		m["serve.cache_hit_frac"] = ratio(float64(t.hits), float64(t.reqs))
		m["serve.coalesced"] = float64(t.joins) / float64(t.rounds)
		m["serve.rejected"] = float64(t.rejected) / float64(t.rounds)
	}
	return nil
}

// beyond counts the samples above v's nearest-rank q-th percentile.
func beyond(v []float64, q float64) int {
	rank := int(float64(len(v))*q + 0.999999)
	if rank > len(v) {
		rank = len(v)
	}
	return len(v) - rank
}
