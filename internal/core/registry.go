package core

import (
	"fmt"
	"sort"
	"strings"

	"smtpsim/internal/coherence"
	"smtpsim/internal/pipeline"
)

// The named-extension registries. A Config must be a pure value — something
// that can be serialized, compared and hashed, because the canonical config
// hash is the result-cache key of the simulation service (see Canonical and
// internal/serve). Func-valued and pointer-valued knobs cannot be part of
// such a value, so every pipeline ablation and protocol variant is
// registered here under a stable lowercase name and selected by that name
// (Config.Tweak, Config.Proto).
//
// Registration happens at init time from a single goroutine; the maps are
// read-only afterwards, which is what lets concurrent Runner workers and
// server requests resolve names without locking.

var (
	pipeTweaks     = map[string]func(*pipeline.Config){}
	protocolTables = map[string]func() *coherence.Table{}
)

// RegisterTweak registers a named pipeline ablation for Config.Tweak.
// Names follow the metric-segment grammar ([a-z0-9_]+); duplicate or
// malformed registrations panic (they are programming errors, caught at
// init time). Not safe for concurrent use: register from init functions.
func RegisterTweak(name string, fn func(*pipeline.Config)) {
	checkRegName("tweak", name)
	if fn == nil {
		panic(fmt.Sprintf("core: tweak %q registered with nil func", name))
	}
	if _, dup := pipeTweaks[name]; dup {
		panic(fmt.Sprintf("core: tweak %q registered twice", name))
	}
	pipeTweaks[name] = fn
}

// RegisterProtocol registers a named coherence-protocol variant for
// Config.Proto. The factory is invoked once per machine build, so stateful
// protocol tables (such as the ReVive log) are private to their run — a
// shared table would couple concurrent runs and break determinism. A nil
// table from the factory selects the default protocol. Panics on duplicate
// or malformed names; register from init functions.
func RegisterProtocol(name string, factory func() *coherence.Table) {
	checkRegName("protocol", name)
	if factory == nil {
		panic(fmt.Sprintf("core: protocol %q registered with nil factory", name))
	}
	if _, dup := protocolTables[name]; dup {
		panic(fmt.Sprintf("core: protocol %q registered twice", name))
	}
	protocolTables[name] = factory
}

// TweakNames lists the registered tweak names in sorted order.
func TweakNames() []string { return sortedKeys(pipeTweaks) }

// ProtocolNames lists the registered protocol names in sorted order.
func ProtocolNames() []string { return sortedKeys(protocolTables) }

// sortedKeys flattens a registry's names; the sort makes the result
// deterministic (collect-sort idiom, see DESIGN.md determinism rules).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkRegName validates a registry name: non-empty, [a-z0-9_]+ only.
func checkRegName(kind, name string) {
	if name == "" {
		panic(fmt.Sprintf("core: empty %s name", kind))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			panic(fmt.Sprintf("core: %s name %q must match [a-z0-9_]+", kind, name))
		}
	}
}

// lookupTweak resolves a Config.Tweak name ("" = none).
func lookupTweak(name string) (func(*pipeline.Config), error) {
	if name == "" {
		return nil, nil
	}
	fn, ok := pipeTweaks[name]
	if !ok {
		return nil, fmt.Errorf("config: unknown tweak %q (registered: %s)",
			name, strings.Join(TweakNames(), ", "))
	}
	return fn, nil
}

// lookupProtocol resolves a Config.Proto name ("" = "base", whose factory
// returns the nil table that selects the default protocol).
func lookupProtocol(name string) (func() *coherence.Table, error) {
	if name == "" {
		name = ProtoBase
	}
	factory, ok := protocolTables[name]
	if !ok {
		return nil, fmt.Errorf("config: unknown protocol %q (registered: %s)",
			name, strings.Join(ProtocolNames(), ", "))
	}
	return factory, nil
}

// ProtoBase and ProtoRevive are the built-in protocol names.
const (
	ProtoBase   = "base"
	ProtoRevive = "revive"
)

// Built-in tweak names: the pipeline ablations of §2.1/§2.3.
const (
	// TweakNoLAS disables look-ahead scheduling on the protocol thread.
	TweakNoLAS = "nolas"
	// TweakPerfectProtoCaches gives the protocol thread private perfect
	// caches, isolating the cache-pollution cost of sharing L1/L2.
	TweakPerfectProtoCaches = "perfect_proto_caches"
	// TweakSlowBitOps removes the special bit-manipulation ALU ops.
	TweakSlowBitOps = "slow_bit_ops"
)

func init() {
	RegisterTweak(TweakNoLAS, func(pc *pipeline.Config) { pc.LAS = false })
	RegisterTweak(TweakPerfectProtoCaches, func(pc *pipeline.Config) { pc.PerfectProtoCaches = true })
	RegisterTweak(TweakSlowBitOps, func(pc *pipeline.Config) { pc.SlowBitOps = true })

	// "base" is the paper's protocol: the default table the node builds
	// when no replacement is installed.
	RegisterProtocol(ProtoBase, func() *coherence.Table { return nil })
	// "revive" is the §6 ReVive-style rollback-logging extension. Each run
	// gets a fresh table over a fresh log, so runs stay independent.
	RegisterProtocol(ProtoRevive, func() *coherence.Table {
		return coherence.NewReviveTable(coherence.NewReviveLog())
	})
}
