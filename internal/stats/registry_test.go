package stats

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, why string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", why)
		}
	}()
	fn()
}

func TestRegistryNamesAndCollisions(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("node0").Scope("pipe")
	s.Counter("cycles")
	if got := s.Name(); got != "node0.pipe" {
		t.Fatalf("scope name %q", got)
	}

	mustPanic(t, "duplicate name", func() { s.Counter("cycles") })
	mustPanic(t, "duplicate across kinds", func() { s.GaugeFunc("cycles", func() float64 { return 0 }) })
	mustPanic(t, "invalid segment chars", func() { s.Counter("Bad-Name") })
	mustPanic(t, "empty segment", func() { s.Counter("a..b") })
	mustPanic(t, "empty name", func() { s.Counter("") })

	// A peak expands to .max/.mean/.samples; a scalar colliding with one of
	// those flattened names must be rejected too.
	s.Peak("occ")
	mustPanic(t, "collision with expanded peak sample", func() { s.Counter("occ.max") })
}

func TestRegistrySnapshotSortedAndDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		n := r.Scope("node1")
		n.Counter("zz").Add(3)
		n.Counter("aa").Add(1)
		p := n.Peak("occ")
		p.Sample(4)
		p.Sample(2)
		g := r.Scope("net").Gauge("depth")
		g.Set(2.5)
		return r
	}
	a, b := build().Snapshot(), build().Snapshot()

	names := a.Names()
	if !sortedStrings(names) {
		t.Fatalf("snapshot names not sorted: %v", names)
	}
	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("identical registries serialized differently:\n%s\nvs\n%s", ja.String(), jb.String())
	}
	if v := a.Value("node1.occ.max"); v != 4 {
		t.Fatalf("occ.max = %v", v)
	}
	if v := a.Uint("node1.zz"); v != 3 {
		t.Fatalf("zz = %d", v)
	}
	if _, ok := a.Lookup("nope"); ok {
		t.Fatal("lookup of absent name succeeded")
	}
	if a.Value("nope") != 0 {
		t.Fatal("absent value should read 0")
	}
	if !strings.Contains(ja.String(), `"net.depth": 2.5`) {
		t.Fatalf("gauge missing from JSON:\n%s", ja.String())
	}

	var csv bytes.Buffer
	if err := a.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "name,kind,value\n") ||
		!strings.Contains(csv.String(), "node1.zz,counter,3\n") {
		t.Fatalf("bad CSV:\n%s", csv.String())
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Scope("mc").Histogram("qdepth", []float64{1, 4, 16})

	// "le" semantics: a value exactly on an edge lands in that bucket.
	for _, v := range []float64{0, 1} {
		h.Observe(v)
	}
	h.Observe(4)      // second bucket upper edge
	h.Observe(16)     // third bucket upper edge
	h.Observe(16.001) // overflow
	h.Observe(100)    // overflow

	want := []uint64{2, 1, 1, 2}
	for i, w := range want {
		if got := h.Bucket(i); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 0+1+4+16+16.001+100 {
		t.Fatalf("sum = %v", h.Sum())
	}

	// Snapshot exports cumulative le_* samples plus count and sum.
	snap := r.Snapshot()
	for name, want := range map[string]float64{
		"mc.qdepth.le_1":   2,
		"mc.qdepth.le_4":   3,
		"mc.qdepth.le_16":  4,
		"mc.qdepth.le_inf": 6,
		"mc.qdepth.count":  6,
	} {
		if got := snap.Value(name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}

	mustPanic(t, "non-ascending edges", func() { NewHistogram([]float64{4, 4}) })
}

func TestRecorderRing(t *testing.T) {
	r := NewRegistry()
	c := r.Scope("x").Counter("events")
	rec := NewRecorder(r, 3)
	for cyc := uint64(1); cyc <= 5; cyc++ {
		c.Inc()
		rec.Record(cyc * 100)
	}
	s := rec.Series()
	if s.Len() != 3 || s.Dropped != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", s.Len(), s.Dropped)
	}
	if !reflect.DeepEqual(s.Names, []string{"x.events"}) {
		t.Fatalf("names = %v", s.Names)
	}
	// The ring keeps the newest window in chronological order.
	for i, wantCyc := range []uint64{300, 400, 500} {
		if s.Samples[i].Cycle != wantCyc || s.Samples[i].Values[0] != float64(i+3) {
			t.Fatalf("sample %d = %+v", i, s.Samples[i])
		}
	}
	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "cycle,x.events\n300,3\n") {
		t.Fatalf("bad series CSV:\n%s", csv.String())
	}
}
