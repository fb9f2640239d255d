package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// Canonical config identity (DESIGN.md §12). Every run of this simulator is
// a pure function of its Config — that is what the determinism gates
// (simlint, the kernel differential suite) enforce — so a canonical
// encoding of the Config identifies the run's entire result. Canonical()
// produces that encoding: defaults applied, names normalized, fields in a
// fixed order, floats in shortest round-trip form. Two configs that
// describe the same run canonicalize to the same bytes, and Hash() over
// those bytes is the content address under which the simulation service
// caches results.

// ParseModel resolves a machine-model name case-insensitively.
func ParseModel(s string) (Model, error) {
	for _, m := range Models() {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q (Base, IntPerfect, Int512KB, Int64KB, SMTp)", s)
}

// ParseApp resolves an application name case-insensitively; the hyphen in
// "Radix-Sort" is optional.
func ParseApp(s string) (App, error) {
	for _, a := range Apps() {
		if strings.EqualFold(a.String(), s) ||
			strings.EqualFold(strings.ReplaceAll(a.String(), "-", ""), s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown app %q (FFT, FFTW, LU, Ocean, Radix-Sort, Water)", s)
}

// canonicalized validates c and returns it with every default made
// explicit, so that a config written with defaults omitted and one written
// with them spelled out become the same value:
//
//   - the withDefaults fill-ins (nodes, threads, clock, scale, cycle budget);
//   - SizeFor 0 → Nodes*AppThreads (exactly what workload.Build does);
//   - Proto "" → "base";
//   - MetricsDepth: forced to 0 when no series is recorded, 0 → 1024 when
//     one is (the recorder's documented default).
func (c Config) canonicalized() (Config, error) {
	d, err := c.withDefaults()
	if err != nil {
		return c, err
	}
	if d.SizeFor == 0 {
		d.SizeFor = d.Nodes * d.AppThreads
	}
	if d.Proto == "" {
		d.Proto = ProtoBase
	}
	if d.MetricsInterval == 0 {
		d.MetricsDepth = 0
	} else if d.MetricsDepth == 0 {
		d.MetricsDepth = 1024
	}
	return d, nil
}

// Canonical returns the canonical JSON encoding of the config: defaults
// applied, fixed field order, shortest-round-trip floats, no whitespace.
// Equivalent configs produce identical bytes; an invalid config is an
// error.
func (c Config) Canonical() ([]byte, error) {
	d, err := c.canonicalized()
	if err != nil {
		return nil, err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"app":%q,"model":%q,"nodes":%d,"app_threads":%d`,
		d.App.String(), d.Model.String(), d.Nodes, d.AppThreads)
	fmt.Fprintf(&b, `,"cpu_ghz":%s,"scale":%s,"seed":%d,"size_for":%d`,
		ff(d.CPUGHz), ff(d.Scale), d.Seed, d.SizeFor)
	fmt.Fprintf(&b, `,"max_cycles":%d,"tweak":%q,"protocol":%q`,
		uint64(d.MaxCycles), d.Tweak, d.Proto)
	fmt.Fprintf(&b, `,"metrics_interval":%d,"metrics_depth":%d`,
		uint64(d.MetricsInterval), d.MetricsDepth)
	// Sampling is part of the identity: unlike Shards, it changes the
	// simulated outcome, so it must change the hash.
	fmt.Fprintf(&b, `,"sample_period":%d,"sample_window":%d,"reference_kernel":%v}`,
		d.SamplePeriod, uint64(d.SampleWindow), d.ReferenceKernel)
	return b.Bytes(), nil
}

// Hash returns the 64-bit FNV-1a hash of the canonical encoding — the
// content address of the run this config describes. Equivalent configs
// (field order, defaults spelled out or omitted) hash identically.
func (c Config) Hash() (uint64, error) {
	b, err := c.Canonical()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// MarshalJSON encodes the config in its canonical form, so any config that
// round-trips through JSON arrives already normalized.
func (c Config) MarshalJSON() ([]byte, error) { return c.Canonical() }

// configJSON is the wire shape of a Config. Pointer fields distinguish
// "absent" (take the default) from an explicit zero.
type configJSON struct {
	App             *string  `json:"app"`
	Model           *string  `json:"model"`
	Nodes           *int     `json:"nodes"`
	AppThreads      *int     `json:"app_threads"`
	CPUGHz          *float64 `json:"cpu_ghz"`
	Scale           *float64 `json:"scale"`
	Seed            *uint64  `json:"seed"`
	SizeFor         *int     `json:"size_for"`
	MaxCycles       *uint64  `json:"max_cycles"`
	Tweak           *string  `json:"tweak"`
	Proto           *string  `json:"protocol"`
	MetricsInterval *uint64  `json:"metrics_interval"`
	MetricsDepth    *int     `json:"metrics_depth"`
	SamplePeriod    *uint64  `json:"sample_period"`
	SampleWindow    *uint64  `json:"sample_window"`
	ReferenceKernel *bool    `json:"reference_kernel"`

	// Shards is accepted on input as a convenience (an experiment spec may
	// pin its execution parallelism) but is deliberately absent from the
	// canonical form: it cannot change a single result byte, so two specs
	// differing only in shards must hash — and cache — identically.
	Shards *int `json:"shards"`
}

// UnmarshalJSON decodes an experiment spec. Unknown fields are rejected
// (a misspelled knob must fail loudly, not silently run the default);
// missing fields take the documented defaults; app and model names are
// matched case-insensitively. The decoded config is not yet validated —
// call Validate (or let Run do it) to vet the values themselves.
func (c *Config) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var in configJSON
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	out := Config{}
	if in.App != nil {
		app, err := ParseApp(*in.App)
		if err != nil {
			return fmt.Errorf("config: %w", err)
		}
		out.App = app
	}
	if in.Model != nil {
		model, err := ParseModel(*in.Model)
		if err != nil {
			return fmt.Errorf("config: %w", err)
		}
		out.Model = model
	}
	if in.Nodes != nil {
		out.Nodes = *in.Nodes
	}
	if in.AppThreads != nil {
		out.AppThreads = *in.AppThreads
	}
	if in.CPUGHz != nil {
		out.CPUGHz = *in.CPUGHz
	}
	if in.Scale != nil {
		out.Scale = *in.Scale
	}
	if in.Seed != nil {
		out.Seed = *in.Seed
	}
	if in.SizeFor != nil {
		out.SizeFor = *in.SizeFor
	}
	if in.MaxCycles != nil {
		out.MaxCycles = Cycle(*in.MaxCycles)
	}
	if in.Tweak != nil {
		out.Tweak = *in.Tweak
	}
	if in.Proto != nil {
		out.Proto = *in.Proto
	}
	if in.MetricsInterval != nil {
		out.MetricsInterval = Cycle(*in.MetricsInterval)
	}
	if in.MetricsDepth != nil {
		out.MetricsDepth = *in.MetricsDepth
	}
	if in.SamplePeriod != nil {
		out.SamplePeriod = *in.SamplePeriod
	}
	if in.SampleWindow != nil {
		out.SampleWindow = Cycle(*in.SampleWindow)
	}
	if in.ReferenceKernel != nil {
		out.ReferenceKernel = *in.ReferenceKernel
	}
	if in.Shards != nil {
		out.Shards = *in.Shards
	}
	*c = out
	return nil
}
