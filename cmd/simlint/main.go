// Command simlint is the repository's static-analysis gate. It loads
// every package of the module with the standard library's go/parser and
// go/types (no external dependencies) and enforces six invariant families
// documented in DESIGN.md:
//
//   - determinism: no wall-clock, math/rand, env reads or goroutines in
//     simulation packages;
//   - maporder: no map iteration whose order can leak into results;
//   - metricname: stats registration names follow the METRICS.md grammar;
//   - apihygiene: internal/* never imports cmd/*; ctx first, error last;
//     API config structs stay serializable;
//   - hotalloc: hot packages pass messages by value and use dense tables;
//   - shardsafe: shard-window code touches only shard-owned state, and
//     cross-shard effects funnel through sanctioned staging points
//     (//simlint:shardlocal and //simlint:shardfunnel declare ownership).
//
// Usage:
//
//	simlint [flags] [module-root]
//
// With no arguments it lints the module containing the current directory.
// It prints one finding per line as file:line:col [check] message and
// exits 1 if anything is found, so it slots directly into make check.
// -check runs a comma-separated subset of analyzers; naming an unknown
// analyzer exits 2 with the available-analyzer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"smtpsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// analyzerTable renders the name + one-line-doc table shown by -h and by
// an unknown -check name.
func analyzerTable(w io.Writer) {
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array instead of text")
		check   = fs.String("check", "", "run only the named analyzers (comma-separated; default: all)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: simlint [flags] [module-root]\n\n")
		fmt.Fprintf(fs.Output(), "Static-analysis gate for the simulator. Analyzers:\n\n")
		analyzerTable(fs.Output())
		fmt.Fprintf(fs.Output(), "\nSilence an intentional finding on its own line or the line above:\n")
		fmt.Fprintf(fs.Output(), "  //simlint:allow <check> -- <reason>\n\nFlags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	root := "."
	switch fs.NArg() {
	case 0:
	case 1:
		root = fs.Arg(0)
	default:
		fs.Usage()
		return 2
	}
	root, err := findModuleRoot(root)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}

	analyzers := lint.Analyzers()
	if *check != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*check, ",") {
			name = strings.TrimSpace(name)
			a := lint.Lookup(name)
			if a == nil {
				fmt.Fprintf(stderr, "simlint: unknown check %q; available analyzers:\n", name)
				analyzerTable(stderr)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	mod, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	diags := lint.RunAll(mod, analyzers)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod at or above %s", dir)
		}
		d = parent
	}
}
