package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"smtpsim/internal/pipeline"
)

// TestCanonicalGolden pins one canonical encoding byte-for-byte: the
// content-address contract of the result cache. If this changes, every
// cached result key changes with it — such a change must be deliberate.
func TestCanonicalGolden(t *testing.T) {
	cfg := Config{Model: SMTp, App: FFT, Nodes: 4, Seed: 42, Scale: 0.25}
	got, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"app":"FFT","model":"SMTp","nodes":4,"app_threads":1` +
		`,"cpu_ghz":2,"scale":0.25,"seed":42,"size_for":4` +
		`,"max_cycles":300000000,"tweak":"","protocol":"base"` +
		`,"metrics_interval":0,"metrics_depth":0` +
		`,"sample_period":0,"sample_window":0,"reference_kernel":false}`
	if string(got) != want {
		t.Fatalf("canonical encoding changed:\n got: %s\nwant: %s", got, want)
	}
	h, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h == 0 {
		t.Fatal("hash is zero")
	}
}

// TestCanonicalDefaultsExplicit: a config written with defaults omitted and
// the same config with every default spelled out are the same run, so they
// must share canonical bytes and hash.
func TestCanonicalDefaultsExplicit(t *testing.T) {
	terse := Config{Model: Base, App: Ocean, Nodes: 2}
	explicit := Config{
		Model: Base, App: Ocean, Nodes: 2, AppThreads: 1,
		CPUGHz: 2, Scale: 1, SizeFor: 2, MaxCycles: 300_000_000,
		Proto: ProtoBase,
	}
	a, err := terse.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("defaults-omitted and defaults-explicit diverge:\n%s\n%s", a, b)
	}
	ha, _ := terse.Hash()
	hb, _ := explicit.Hash()
	if ha != hb {
		t.Fatalf("hashes diverge: %016x vs %016x", ha, hb)
	}
}

// TestCanonicalFieldOrder: JSON field order must not matter — both specs
// decode and canonicalize to the same bytes.
func TestCanonicalFieldOrder(t *testing.T) {
	spec1 := `{"app":"lu","model":"smtp","nodes":8,"seed":7}`
	spec2 := `{"seed":7,"nodes":8,"model":"SMTp","app":"LU"}`
	var c1, c2 Config
	if err := json.Unmarshal([]byte(spec1), &c1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(spec2), &c2); err != nil {
		t.Fatal(err)
	}
	b1, err := c1.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("field order changed the canonical form:\n%s\n%s", b1, b2)
	}
}

// TestCanonicalRoundTrip: marshal -> unmarshal -> marshal is the identity
// on canonical bytes, for a spread of configs including every named tweak
// and protocol.
func TestCanonicalRoundTrip(t *testing.T) {
	cfgs := []Config{
		{},
		{Model: SMTp, App: Radix, Nodes: 4, AppThreads: 2, CPUGHz: 4, Scale: 0.5, Seed: 9},
		{Model: Int64KB, App: Water, Nodes: 16, SizeFor: 64, MaxCycles: 1000},
		{Model: SMTp, App: FFT, Nodes: 2, MetricsInterval: 500, MetricsDepth: 16},
		{Model: SMTp, App: FFT, Nodes: 2, MetricsInterval: 500},
		{Model: Base, App: FFTW, Nodes: 1, ReferenceKernel: true},
	}
	for _, name := range TweakNames() {
		cfgs = append(cfgs, Config{Model: SMTp, App: Ocean, Nodes: 2, Tweak: name})
	}
	for _, name := range ProtocolNames() {
		cfgs = append(cfgs, Config{Model: SMTp, App: Ocean, Nodes: 2, Proto: name})
	}
	for i, cfg := range cfgs {
		first, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("cfg %d: marshal: %v", i, err)
		}
		var back Config
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("cfg %d: unmarshal: %v", i, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("cfg %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("cfg %d: round trip not stable:\n%s\n%s", i, first, second)
		}
		h1, _ := cfg.Hash()
		h2, _ := back.Hash()
		if h1 != h2 {
			t.Errorf("cfg %d: hash changed across round trip", i)
		}
	}
}

// TestHashDistinctAcrossDifferentialConfigs: the hashes of the kernel
// differential suite's configurations (every app x model at 4n1w, the
// three extra shapes, and each of them on the reference kernel) must be
// pairwise distinct — distinct runs must never share a cache key.
func TestHashDistinctAcrossDifferentialConfigs(t *testing.T) {
	var cfgs []Config
	for _, app := range Apps() {
		for _, model := range Models() {
			cfgs = append(cfgs, Config{
				Model: model, App: app, Nodes: 4, AppThreads: 1,
				Scale: 0.25, Seed: 42,
			})
		}
	}
	cfgs = append(cfgs,
		Config{Model: SMTp, App: FFT, Nodes: 8, AppThreads: 1, Scale: 0.25, Seed: 42},
		Config{Model: SMTp, App: Ocean, Nodes: 4, AppThreads: 2, Scale: 0.25, Seed: 42},
		Config{Model: Int512KB, App: LU, Nodes: 4, AppThreads: 2, Scale: 0.25, Seed: 42},
	)
	for _, c := range cfgs {
		ref := c
		ref.ReferenceKernel = true
		cfgs = append(cfgs, ref)
		if len(cfgs) > 1000 {
			t.Fatal("runaway config list")
		}
	}
	seen := make(map[uint64]string)
	for _, c := range cfgs {
		h, err := c.Hash()
		if err != nil {
			t.Fatal(err)
		}
		canon, _ := c.Canonical()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision %016x between\n%s\n%s", h, prev, canon)
		}
		seen[h] = string(canon)
	}
	if len(seen) != 66 {
		t.Fatalf("expected 66 distinct configs, got %d", len(seen))
	}
}

// TestUnmarshalStrict: unknown fields and unknown names fail loudly.
func TestUnmarshalStrict(t *testing.T) {
	bad := []string{
		`{"app":"FFT","modle":"Base"}`, // misspelled field
		`{"app":"NoSuchApp"}`,          // unknown app
		`{"model":"Pentium"}`,          // unknown model
		`{"nodes":"four"}`,             // wrong type
		`{"app":"FFT","extra_knob":1}`, // invented knob
		`[1,2,3]`,                      // not an object
	}
	for _, spec := range bad {
		var c Config
		if err := json.Unmarshal([]byte(spec), &c); err == nil {
			t.Errorf("spec %s decoded without error", spec)
		}
	}
	// Unknown tweak/protocol names decode (they are strings) but fail
	// Validate — the server rejects them before running.
	var c Config
	if err := json.Unmarshal([]byte(`{"app":"FFT","tweak":"warp_drive"}`), &c); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error("unknown tweak passed Validate")
	}
	if err := json.Unmarshal([]byte(`{"app":"FFT","protocol":"mesi"}`), &c); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error("unknown protocol passed Validate")
	}
}

// TestRegistryValidation pins the registration-time errors.
func TestRegistryValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("dup tweak", func() { RegisterTweak(TweakNoLAS, func(*pipeline.Config) {}) })
	mustPanic("bad name", func() { RegisterTweak("Bad-Name", func(*pipeline.Config) {}) })
	mustPanic("empty name", func() { RegisterTweak("", func(*pipeline.Config) {}) })
	mustPanic("nil fn", func() { RegisterTweak("fresh_tweak", nil) })
	mustPanic("dup proto", func() { RegisterProtocol(ProtoBase, nil) })

	for _, want := range []string{TweakNoLAS, TweakPerfectProtoCaches, TweakSlowBitOps} {
		found := false
		for _, n := range TweakNames() {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in tweak %q not registered", want)
		}
	}
	protos := ProtocolNames()
	if fmt.Sprint(protos) != "[base revive]" {
		t.Errorf("ProtocolNames() = %v, want [base revive]", protos)
	}
}
