package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. parent indexes the span
// that caused it (-1 for a root); op identifies the operation (machine run
// or request) every span of which shares the id.
type span struct {
	name       string
	op         int64
	parent     int
	tid        int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths can share the traced ones' calls.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, tid: tid, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// wrap runs fn inside a span.
func (t *tracer) wrap(name string, op int64, parent, tid int, fn func()) {
	id := t.begin(name, op, parent, tid)
	fn()
	t.end(id)
}

// layerTime is the folded time of every span with one name.
type layerTime struct {
	name  string
	count int
	total time.Duration
	self  time.Duration // total minus the part covered by child spans
}

// fold groups closed spans by name. A span's self time is its duration
// minus the union of its children's intervals, so parallel children are
// not subtracted twice.
func (t *tracer) fold() []layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			byName[s.name] = lt
			names = append(names, s.name)
		}
		d := s.end - s.start
		lt.count++
		lt.total += d
		lt.self += d - t.covered(children[i])
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered returns the length of the union of the given spans' intervals.
func (t *tracer) covered(ids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range ids {
		if s := t.spans[id]; s.end >= 0 {
			ivs = append(ivs, iv{s.start, s.end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi time.Duration
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// spanLayers maps span names to the per-layer metric of their mean
// duration. The scale converts seconds to the metric's unit.
var spanLayers = []struct {
	span, metric string
	scale        float64
}{
	{"workload.Build", "workload.build_ms", 1e3},
	{"machine.New", "machine.new_ms", 1e3},
	{"machine.RunContext", "machine.run_ms", 1e3},
	{"machine.CheckCoherence", "machine.check_coherence_ms", 1e3},
	{"stats.Snapshot", "stats.snapshot_ms", 1e3},
	{"core.WriteRunJSON", "core.write_json_ms", 1e3},
	{"machine.Snapshot", "snapshot.encode_ms", 1e3},
	{"machine.Restore", "snapshot.decode_ms", 1e3},
	{"serve.ServeHTTP", "serve.handler_us", 1e6},
}

// spanMetrics sets each span-derived metric to the mean duration of its
// spans.
func spanMetrics(t *tracer, m map[string]float64) {
	folded := map[string]layerTime{}
	for _, lt := range t.fold() {
		folded[lt.name] = lt
	}
	for _, sl := range spanLayers {
		if lt, ok := folded[sl.span]; ok && lt.count > 0 {
			m[sl.metric] = lt.total.Seconds() / float64(lt.count) * sl.scale
		}
	}
}

// foldedTable renders the per-layer span table.
func (t *tracer) foldedTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	for _, lt := range t.fold() {
		fmt.Fprintf(&b, "%-24s %8d %12.3f %12.3f %12.4f\n", lt.name, lt.count,
			ms(lt.total), ms(lt.self), ms(lt.total)/float64(lt.count))
	}
	return b.String()
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`  // µs
	Dur  float64          `json:"dur"` // µs
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// chromeTrace renders the spans in Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) chromeTrace() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]traceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: s.name,
			Cat:  strings.SplitN(s.name, ".", 2)[0],
			Ph:   "X",
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.tid,
			Args: map[string]int64{"span": int64(i), "parent": int64(s.parent), "op": s.op},
		})
	}
	return map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
}
