// Package serve implements the simulation service: an HTTP/JSON API that
// accepts experiment specs (the canonical Config encoding of DESIGN.md §12),
// validates them, schedules them on a bounded worker pool with fail-fast
// admission control, and serves every repeat of a spec byte-identically
// from a content-addressed result cache keyed by the config's canonical
// hash. Because runs are pure functions of their config, the cache needs no
// invalidation and a hit is indistinguishable from a fresh simulation —
// identical specs submitted concurrently are coalesced onto one run.
//
// Endpoints:
//
//	POST /v1/runs            submit a spec; responds with the result document
//	POST /v1/runs?stream=ndjson|sse
//	                         same, but streams accepted/started/series/done
//	GET  /v1/results/{hash}  fetch a cached result by its content address
//	GET  /v1/stats           service metrics (flat JSON, stats registry)
//	GET  /healthz            liveness; 503 while draining
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"smtpsim/internal/core"
	"smtpsim/internal/stats"
)

// Config is the experiment spec the server accepts; it is exactly the
// simulator's run configuration.
type Config = core.Config

// Result is one run's outcome.
type Result = core.Result

// Options configures a Server. The zero value is usable.
type Options struct {
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds admitted-but-unstarted runs; beyond it submissions
	// are rejected with 503 rather than queued unboundedly. 0 means 64.
	QueueDepth int
	// CacheBytes bounds the result store; 0 means 256 MiB.
	CacheBytes int64
	// CacheDir, when set, persists the result store to content-addressed
	// files under this directory and reloads them on boot, so cached
	// results survive restarts. Eviction removes the evicted entry's file:
	// disk always mirrors memory.
	CacheDir string
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 64
}

func (o Options) cacheBytes() int64 {
	if o.CacheBytes > 0 {
		return o.CacheBytes
	}
	return 256 << 20
}

// Server is the simulation service. Create with New, expose via Handler,
// stop with Drain.
type Server struct {
	cache *resultCache
	sched *scheduler

	mu       sync.Mutex
	inflight map[string]*task // canonical hash -> running task (dedup)

	rejected  atomic.Uint64 // submissions refused (queue full or draining)
	completed atomic.Uint64 // runs that finished with a result document
	failed    atomic.Uint64 // runs that finished with an error
	coalesced atomic.Uint64 // submissions joined onto an in-flight run

	reg *stats.Registry
	mux *http.ServeMux
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	s := &Server{
		cache:    newResultCache(opts.cacheBytes(), opts.CacheDir),
		inflight: make(map[string]*task),
	}
	s.sched = newScheduler(opts.workers(), opts.queueDepth(), s.execute)
	s.initStats()
	s.initMux()
	return s
}

// initStats registers the service counters in a stats registry. Every
// reader runs at snapshot time against atomics or mutex-guarded state, so
// /v1/stats is safe against concurrent requests and runs.
func (s *Server) initStats() {
	s.reg = stats.NewRegistry()
	cs := s.reg.Scope("cache")
	cs.CounterFunc("hits", func() uint64 { h, _, _, _, _ := s.cache.Stats(); return h })
	cs.CounterFunc("misses", func() uint64 { _, m, _, _, _ := s.cache.Stats(); return m })
	cs.CounterFunc("evictions", func() uint64 { _, _, e, _, _ := s.cache.Stats(); return e })
	cs.CounterFunc("loaded", func() uint64 { return s.cache.LoadedFromDisk() })
	cs.GaugeFunc("entries", func() float64 { _, _, _, n, _ := s.cache.Stats(); return float64(n) })
	cs.GaugeFunc("bytes", func() float64 { _, _, _, _, b := s.cache.Stats(); return float64(b) })
	qs := s.reg.Scope("queue")
	qs.GaugeFunc("depth", func() float64 { return float64(s.sched.queued()) })
	qs.CounterFunc("rejected", func() uint64 { return s.rejected.Load() })
	rs := s.reg.Scope("runs")
	rs.CounterFunc("completed", func() uint64 { return s.completed.Load() })
	rs.CounterFunc("failed", func() uint64 { return s.failed.Load() })
	rs.CounterFunc("coalesced", func() uint64 { return s.coalesced.Load() })
}

func (s *Server) initMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/results/{hash}", s.handleResults)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting runs (new submissions get 503) and waits for every
// admitted run to finish; when ctx expires first, in-flight simulations are
// aborted through their run context and Drain returns ctx's error after the
// workers retire them. Call once, at shutdown.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// execute runs one admitted task to completion: simulate, render the result
// document and stream frames, publish to the cache, retire the in-flight
// entry, and wake every waiter. Run via Runner so panics and context
// cancellation surface as failed Results, not dead workers.
func (s *Server) execute(ctx context.Context, t *task) {
	res := core.Runner{Workers: 1}.RunBatch(ctx, []core.Job{{Cfg: t.cfg}})[0]
	t.res = res
	if res.Err != nil {
		t.err = res.Err
		s.failed.Add(1)
	} else {
		var body bytes.Buffer
		if err := core.WriteRunJSON(&body, res); err != nil {
			t.err = err
			s.failed.Add(1)
		} else {
			t.body = body.Bytes()
			val := &cached{
				Body:      t.body,
				Events:    renderSeriesEvents(res.Series),
				Cycles:    uint64(res.Cycles),
				Completed: res.Completed,
			}
			s.cache.Put(t.key, val)
			s.completed.Add(1)
		}
	}
	// Publish the cache entry before retiring the in-flight record, so a
	// request that misses the in-flight map can only hit the cache.
	s.mu.Lock()
	delete(s.inflight, t.key)
	s.mu.Unlock()
	close(t.done)
}

// submitOrJoin resolves a validated spec to a task: joining the in-flight
// run of the same canonical hash when there is one, otherwise admitting a
// new task. joined reports which happened.
//
// Admission happens under s.mu, before the task is published in inflight,
// so a request can only ever join a task the scheduler accepted (and whose
// done channel a worker will therefore close). The lock order is s.mu, then
// the scheduler's; nothing takes them the other way round: execute,
// taskDone and Drain never hold both.
func (s *Server) submitOrJoin(cfg Config, key string) (t *task, joined bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.inflight[key]; ok {
		s.coalesced.Add(1)
		return cur, true, nil
	}
	t = newTask(cfg, key)
	if err := s.sched.submit(t); err != nil {
		s.rejected.Add(1)
		return nil, false, err
	}
	s.inflight[key] = t
	return t, false, nil
}

// handleRuns is POST /v1/runs: decode and validate the spec, hash it, and
// serve from cache / join the in-flight run / admit a new one.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	stream := r.URL.Query().Get("stream")
	switch stream {
	case "", "ndjson", "sse":
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown stream mode %q (ndjson, sse)", stream))
		return
	}

	var cfg Config
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&cfg); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A body is exactly one spec: anything after it but whitespace (a
	// second document, trailing garbage) is rejected, never ignored.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "request body holds data after the run spec")
		return
	}
	// Hash canonicalizes, which validates: a bad spec fails here.
	h, err := cfg.Hash()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := fmt.Sprintf("%016x", h)

	if val, ok := s.cache.Get(key); ok {
		if stream == "" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "hit")
			w.Write(val.Body)
			return
		}
		ew := newEventWriter(w, stream == "sse", "hit")
		ew.event(fmt.Sprintf(`{"event":"accepted","key":%q,"cache":"hit"}`, key))
		ew.raw(val.Events)
		ew.event(doneEvent(key, val.Cycles, val.Completed))
		return
	}

	t, joined, err := s.submitOrJoin(cfg, key)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	admission := "miss"
	if joined {
		admission = "join"
	}

	if stream == "" {
		select {
		case <-t.done:
		case <-r.Context().Done():
			return // client gone; the run continues and lands in the cache
		}
		if t.err != nil {
			writeError(w, http.StatusInternalServerError, t.err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", admission)
		w.Write(t.body)
		return
	}

	ew := newEventWriter(w, stream == "sse", admission)
	ew.event(fmt.Sprintf(`{"event":"accepted","key":%q,"cache":%q}`, key, admission))
	select {
	case <-t.started:
		ew.event(`{"event":"started"}`)
	case <-t.done:
	case <-r.Context().Done():
		return
	}
	select {
	case <-t.done:
	case <-r.Context().Done():
		return
	}
	if t.err != nil {
		msg, _ := json.Marshal(t.err.Error())
		ew.event(fmt.Sprintf(`{"event":"error","error":%s}`, msg))
		return
	}
	if val, ok := s.cache.Get(key); ok {
		ew.raw(val.Events)
	} else if t.res != nil {
		ew.raw(renderSeriesEvents(t.res.Series))
	}
	ew.event(doneEvent(key, uint64(t.res.Cycles), t.res.Completed))
}

// handleResults is GET /v1/results/{hash}: fetch a cached result document
// by its content address.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("hash")
	if _, err := strconv.ParseUint(key, 16, 64); err != nil || len(key) != 16 {
		writeError(w, http.StatusBadRequest, "result key must be a 16-digit hex hash")
		return
	}
	val, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for this key")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "hit")
	w.Write(val.Body)
}

// handleStats is GET /v1/stats: the service registry as flat sorted JSON.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.Snapshot().WriteJSON(w)
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight runs finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.sched.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// writeError sends a JSON error document.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(msg)
	fmt.Fprintf(w, "{\"error\":%s}\n", b)
}

// doneEvent renders the stream's final frame.
func doneEvent(key string, cycles uint64, completed bool) string {
	return fmt.Sprintf(`{"event":"done","key":%q,"cycles":%d,"completed":%v,"result":"/v1/results/%s"}`,
		key, cycles, completed, key)
}

// renderSeriesEvents renders a run's metric time series as NDJSON frames: a
// header naming the sampled metrics, then one frame per sampling instant.
// Rendered once, at run completion, so live streams and cache-hit replays
// emit byte-identical frames.
func renderSeriesEvents(series *stats.Series) []byte {
	if series == nil || len(series.Samples) == 0 {
		return nil
	}
	var b bytes.Buffer
	b.WriteString(`{"event":"series","names":[`)
	for i, n := range series.Names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q", n)
	}
	fmt.Fprintf(&b, `],"dropped":%d}`+"\n", series.Dropped)
	for i := range series.Samples {
		smp := &series.Samples[i]
		fmt.Fprintf(&b, `{"event":"sample","cycle":%d,"values":[`, smp.Cycle)
		for j, v := range smp.Values {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(formatValue(v))
		}
		b.WriteString("]}\n")
	}
	return b.Bytes()
}

// formatValue renders a sample value deterministically: integral values as
// integers, everything else in shortest round-trip form (the snapshot
// writer's convention).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// eventWriter frames stream events as NDJSON lines or SSE data frames and
// flushes after every frame so clients observe progress live.
type eventWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	sse bool
}

func newEventWriter(w http.ResponseWriter, sse bool, admission string) *eventWriter {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("X-Cache", admission)
	fl, _ := w.(http.Flusher)
	return &eventWriter{w: w, fl: fl, sse: sse}
}

// event writes one frame holding a single JSON document (no newlines).
func (e *eventWriter) event(jsonDoc string) {
	if e.sse {
		fmt.Fprintf(e.w, "data: %s\n\n", jsonDoc)
	} else {
		fmt.Fprintf(e.w, "%s\n", jsonDoc)
	}
	e.flush()
}

// raw writes a pre-rendered block of newline-terminated NDJSON frames,
// re-framing for SSE when needed.
func (e *eventWriter) raw(lines []byte) {
	if len(lines) == 0 {
		return
	}
	if !e.sse {
		e.w.Write(lines)
		e.flush()
		return
	}
	for len(lines) > 0 {
		i := bytes.IndexByte(lines, '\n')
		if i < 0 {
			i = len(lines) - 1
		}
		fmt.Fprintf(e.w, "data: %s\n\n", lines[:i])
		lines = lines[i+1:]
	}
	e.flush()
}

func (e *eventWriter) flush() {
	if e.fl != nil {
		e.fl.Flush()
	}
}
