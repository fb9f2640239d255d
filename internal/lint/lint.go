// Package lint implements simlint, the repository's stdlib-only static
// analysis suite. It loads every package in the module with go/parser and
// go/types and runs six analyzers over the typed syntax trees:
//
//   - determinism: wall-clock reads, math/rand, environment lookups and
//     goroutine spawns inside internal/ simulation packages;
//   - maporder: iteration over Go maps whose loop body schedules simulator
//     events, escapes data into slices, or performs I/O without sorting
//     the keys first;
//   - metricname: string literals passed to stats registration calls must
//     follow the dotted lowercase schema grammar of METRICS.md and must
//     not collide within a scope;
//   - apihygiene: internal/* must not import cmd/*, context.Context comes
//     first and error comes last in exported signatures, and exported
//     config structs on the API surface carry no func-typed or
//     pointer-to-internal fields (they must stay serializable — configs
//     are the content addresses of cached results);
//   - hotalloc: the per-message hot packages (network, memctrl, coherence,
//     ppengine, machine) must not heap-allocate network messages with
//     &Message{} literals or key tracking state on map[uint64] struct
//     fields;
//   - shardsafe: code reachable from a shard-parallel window must not
//     write machine-shared state, use sync/channel primitives outside
//     sanctioned barrier funnels, or leak shard-owned references into
//     machine-shared structures; ownership is declared with
//     //simlint:shardlocal and //simlint:shardfunnel directives.
//
// Intentional violations are silenced with an annotation on the offending
// line (or the line above it):
//
//	//simlint:allow <check> -- <reason>
//
// The reason is mandatory; an annotation without one is itself reported.
// The analyzers are pure functions from loaded packages to diagnostics, so
// cmd/simlint and the tests share all of the logic here.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it and
// a human-readable message.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Check   string         `json:"check"`
	Message string         `json:"message"`
}

// String renders the diagnostic in the canonical file:line:col [check] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one lint pass over the loaded module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(mod *Module) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name: "determinism",
			Doc:  "no wall-clock, math/rand, env reads or goroutines in internal/ simulation packages",
			Run:  runDeterminism,
		},
		{
			Name: "maporder",
			Doc:  "no map iteration that schedules events, escapes data or performs I/O without sorting",
			Run:  runMapOrder,
		},
		{
			Name: "metricname",
			Doc:  "stats registration names follow the METRICS.md dotted lowercase grammar",
			Run:  runMetricName,
		},
		{
			Name: "apihygiene",
			Doc:  "internal/* does not import cmd/*; ctx first, error last; API config structs stay serializable",
			Run:  runAPIHygiene,
		},
		{
			Name: "hotalloc",
			Doc:  "hot packages pass messages by value and use dense tables, not &network.Message{} or map[uint64] fields",
			Run:  runHotAlloc,
		},
		{
			Name: "shardsafe",
			Doc:  "shard-window code touches only shard-owned state; cross-shard effects funnel through sanctioned staging points",
			Run:  runShardSafe,
		},
	}
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAll runs the given analyzers over the module, applies //simlint:allow
// annotations and returns the surviving diagnostics sorted by position.
// Malformed annotations (no " -- reason" part) are reported as findings of
// the pseudo-check "annotation".
func RunAll(mod *Module, analyzers []*Analyzer) []Diagnostic {
	allow := collectAnnotations(mod)
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(mod) {
			if allow.covers(d) {
				continue
			}
			out = append(out, d)
		}
	}
	out = append(out, allow.malformed...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// diag builds a Diagnostic for a position in the module's fileset.
func (m *Module) diag(pos token.Pos, check, format string, args ...any) Diagnostic {
	p := m.Fset.Position(pos)
	return Diagnostic{
		Pos:     p,
		File:    m.rel(p.Filename),
		Line:    p.Line,
		Col:     p.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}
