package stats

import (
	"fmt"
	"sort"
	"strconv"
)

// This file implements the simulator-wide metrics registry: a hierarchy of
// named Scopes under which every subsystem registers its counters, gauges,
// peaks and histograms with stable dotted names (node3.pipe.l2.misses,
// net.link_waits, ...). A Registry belongs to one machine and, like the
// machine itself, is single-threaded: registration happens at build time
// and reads happen from the same goroutine that ticks the simulation.
//
// Metric names are validated at registration: each dot-separated segment
// matches [a-z0-9_]+, and the flattened sample names a metric will expand
// to (peaks and histograms export several scalars) must be unique across
// the registry. Name collisions are programming errors and panic.

// Kind classifies a registered metric.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindPeak      Kind = "peak"
	KindHistogram Kind = "histogram"
)

// metric is one registered entry: a kind plus a flattener that emits the
// metric's scalar samples (suffix relative to the registered name).
type metric struct {
	name string
	kind Kind
	emit func(emit func(suffix string, v float64))
}

// Registry is the root of a machine's metric namespace.
type Registry struct {
	metrics []metric        // registration order
	byName  map[string]Kind // registered base names
	flat    map[string]bool // every flattened sample name, for collision checks
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]Kind),
		flat:   make(map[string]bool),
	}
}

// Scope returns a namespace rooted at name (e.g. "node3", "net").
func (r *Registry) Scope(name string) *Scope {
	checkSegments(name)
	return &Scope{reg: r, prefix: name}
}

// Each calls fn for every registered metric in lexical name order.
func (r *Registry) Each(fn func(name string, kind Kind)) {
	names := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fn(n, r.byName[n])
	}
}

// register adds a metric, panicking on invalid or colliding names.
// flatSuffixes lists the suffixes the metric expands to ("" for a single
// scalar).
func (r *Registry) register(name string, kind Kind, flatSuffixes []string,
	emit func(emit func(suffix string, v float64))) {
	checkSegments(name)
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("stats: metric %q registered twice", name))
	}
	for _, s := range flatSuffixes {
		fn := name + s
		if r.flat[fn] {
			panic(fmt.Sprintf("stats: metric %q collides with an existing sample name", fn))
		}
	}
	for _, s := range flatSuffixes {
		r.flat[name+s] = true
	}
	r.byName[name] = kind
	r.metrics = append(r.metrics, metric{name: name, kind: kind, emit: emit})
}

// checkSegments validates a dotted metric name fragment.
func checkSegments(name string) {
	if name == "" {
		panic("stats: empty metric name")
	}
	seg := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.':
			if seg == 0 {
				panic(fmt.Sprintf("stats: metric name %q has an empty segment", name))
			}
			seg = 0
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			seg++
		default:
			panic(fmt.Sprintf("stats: metric name %q: segments must match [a-z0-9_]+", name))
		}
	}
	if seg == 0 {
		panic(fmt.Sprintf("stats: metric name %q has an empty segment", name))
	}
}

// Scope is a dotted namespace within a registry. Scopes are cheap handles;
// all state lives in the Registry.
type Scope struct {
	reg    *Registry
	prefix string
}

// Scope returns a child namespace.
func (s *Scope) Scope(name string) *Scope {
	checkSegments(name)
	return &Scope{reg: s.reg, prefix: s.prefix + "." + name}
}

// Name returns the scope's full dotted prefix.
func (s *Scope) Name() string { return s.prefix }

func (s *Scope) full(name string) string { return s.prefix + "." + name }

// Counter registers and returns a new owned counter.
func (s *Scope) Counter(name string) *Counter {
	c := &Counter{}
	s.CounterOf(name, c)
	return c
}

// CounterOf registers an existing counter under this scope.
func (s *Scope) CounterOf(name string, c *Counter) {
	s.reg.register(s.full(name), KindCounter, []string{""},
		func(emit func(string, float64)) { emit("", float64(c.Value())) })
}

// CounterFunc registers a counter whose value is read at snapshot time —
// how subsystems expose the plain uint64 fields their hot paths increment.
func (s *Scope) CounterFunc(name string, fn func() uint64) {
	s.reg.register(s.full(name), KindCounter, []string{""},
		func(emit func(string, float64)) { emit("", float64(fn())) })
}

// Gauge registers and returns a new settable gauge.
func (s *Scope) Gauge(name string) *Gauge {
	g := &Gauge{}
	s.reg.register(s.full(name), KindGauge, []string{""},
		func(emit func(string, float64)) { emit("", g.Value()) })
	return g
}

// GaugeFunc registers a gauge sampled at snapshot time.
func (s *Scope) GaugeFunc(name string, fn func() float64) {
	s.reg.register(s.full(name), KindGauge, []string{""},
		func(emit func(string, float64)) { emit("", fn()) })
}

// Peak registers and returns a new owned peak tracker.
func (s *Scope) Peak(name string) *Peak {
	p := &Peak{}
	s.PeakOf(name, p)
	return p
}

// PeakOf registers an existing peak tracker. It exports three samples:
// name.max, name.mean and name.samples.
func (s *Scope) PeakOf(name string, p *Peak) {
	s.reg.register(s.full(name), KindPeak, []string{".max", ".mean", ".samples"},
		func(emit func(string, float64)) {
			emit(".max", float64(p.Max()))
			emit(".mean", p.Mean())
			emit(".samples", float64(p.Samples()))
		})
}

// Histogram registers a histogram with the given ascending bucket upper
// bounds (an implicit +Inf bucket is appended). It exports name.count,
// name.sum and one cumulative name.le_<edge> sample per bucket.
func (s *Scope) Histogram(name string, edges []float64) *Histogram {
	h := NewHistogram(edges)
	suffixes := []string{".count", ".sum"}
	for _, e := range h.edges {
		suffixes = append(suffixes, ".le_"+edgeLabel(e))
	}
	suffixes = append(suffixes, ".le_inf")
	s.reg.register(s.full(name), KindHistogram, suffixes,
		func(emit func(string, float64)) {
			emit(".count", float64(h.Count()))
			emit(".sum", h.Sum())
			cum := uint64(0)
			for i, e := range h.edges {
				cum += h.counts[i]
				emit(".le_"+edgeLabel(e), float64(cum))
			}
			emit(".le_inf", float64(h.Count()))
		})
	return h
}

// edgeLabel renders a bucket edge as a metric-name segment ("16", "2_5").
func edgeLabel(e float64) string {
	s := strconv.FormatFloat(e, 'g', -1, 64)
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			out = append(out, c)
		case c == '.' || c == '-' || c == '+':
			out = append(out, '_')
		default: // 'e' of an exponent
			out = append(out, c)
		}
	}
	return string(out)
}

// Gauge is a settable instantaneous value.
//
//simlint:shardlocal -- owned by the component's shard, like Counter
type Gauge struct {
	v float64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed buckets. Bucket i holds
// observations v with edges[i-1] < v <= edges[i] ("le" semantics); the
// final bucket is unbounded.
//
//simlint:shardlocal -- owned by the observing component's shard, like Counter
type Histogram struct {
	edges  []float64
	counts []uint64 // len(edges)+1, last = overflow
	count  uint64
	sum    float64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(edges []float64) *Histogram {
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("stats: histogram edges not ascending: %v", edges))
		}
	}
	cp := append([]float64(nil), edges...)
	return &Histogram{edges: cp, counts: make([]uint64, len(cp)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	for i, e := range h.edges {
		if v <= e {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.edges)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Bucket returns the non-cumulative count of bucket i (the bucket after
// the last edge is the overflow bucket).
func (h *Histogram) Bucket(i int) uint64 { return h.counts[i] }
