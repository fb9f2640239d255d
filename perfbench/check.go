package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"smtpsim/internal/core"
)

// pinnedSeeds are the seeds golden.json pins: the paper's default seed and
// one seed held out from every tuning run.
var pinnedSeeds = []uint64{defaultSeed, 7}

//go:embed golden.json
var goldenJSON []byte

// goldenDigests maps workload → seed → run label → SHA-256 of the run's
// core.WriteRunJSON bytes.
type goldenDigests map[string]map[string]map[string]string

func loadGolden() (goldenDigests, error) {
	var g goldenDigests
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (g goldenDigests) pins(workload string, seed uint64) map[string]string {
	return g[workload][strconv.FormatUint(seed, 10)]
}

// runLabel names a run in golden.json and in failure notes. The shard
// count is left out: sharded runs must match the serial digest.
func runLabel(cfg core.Config) string {
	return fmt.Sprintf("%s_x%g", core.RunName(cfg), cfg.Scale)
}

// digest hashes a run's deterministic result document.
func digest(r *core.Result) (string, error) {
	var b bytes.Buffer
	if err := core.WriteRunJSON(&b, r); err != nil {
		return "", err
	}
	return digestBytes(b.Bytes()), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker counts attempted and failed operations. An operation fails when
// its run errs, does not complete, breaks coherence, or produces a result
// document whose digest differs from the pinned one or from an earlier run
// of the same configuration in this process; and, for requests, on any
// status but 200 or a body that differs from the reference.
type checker struct {
	mu        sync.Mutex
	pins      map[string]string // nil when the seed has no pins
	seen      map[string]string // first digest per label in this process
	attempted int
	failed    int
	msgs      []string
}

const maxNotes = 20

func newChecker(pins map[string]string) *checker {
	return &checker{pins: pins, seen: map[string]string{}}
}

// op records one operation's outcome; format and a describe a failure.
func (c *checker) op(ok bool, format string, a ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.msgs) < maxNotes {
			c.msgs = append(c.msgs, fmt.Sprintf(format, a...))
		}
	}
}

// result checks one simulation run as one operation and returns its
// digest ("" when the run produced no document).
func (c *checker) result(label string, r *core.Result) string {
	switch {
	case r == nil:
		c.op(false, "%s: no result", label)
		return ""
	case r.Err != nil:
		c.op(false, "%s: %v", label, r.Err)
		return ""
	case !r.Completed:
		c.op(false, "%s: did not complete in %d cycles", label, r.Cycles)
		return ""
	case r.CoherenceErr != nil:
		c.op(false, "%s: coherence: %v", label, r.CoherenceErr)
		return ""
	}
	d, err := digest(r)
	if err != nil {
		c.op(false, "%s: write result: %v", label, err)
		return ""
	}
	c.op(c.expect(label, d), "%s: digest %.12s differs from the reference", label, d)
	return d
}

// expect reports whether digest d agrees with label's pin and with the
// first digest this process saw for label (which it records).
func (c *checker) expect(label, d string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.pins[label]; ok && want != d {
		return false
	}
	if prev, ok := c.seen[label]; ok {
		return prev == d
	}
	c.seen[label] = d
	return true
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

func (c *checker) notes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

// pinMain regenerates golden.json: every configuration paper-sweep and
// big-machine run, and serve-mix's first round, at each pinned seed, each
// run on one shard through core.Runner.
func pinMain(args []string) int {
	fs := flag.NewFlagSet("perfbench pin", flag.ContinueOnError)
	path := fs.String("golden", filepath.Join("perfbench", "golden.json"), "file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g := goldenDigests{}
	for _, name := range workloadNames() {
		g[name] = map[string]map[string]string{}
		for _, seed := range pinnedSeeds {
			w, err := newWorkload(name, seed, fullSize, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench pin:", err)
				return 1
			}
			pins := map[string]string{}
			cfgs := w.info().pinned
			res := core.Runner{}.RunBatch(context.Background(), jobsFor(cfgs))
			for i, r := range res {
				if r.Err != nil || !r.Completed || r.CoherenceErr != nil {
					fmt.Fprintf(os.Stderr, "perfbench pin: %s failed: err=%v completed=%v coherence=%v\n",
						runLabel(cfgs[i]), r.Err, r.Completed, r.CoherenceErr)
					return 1
				}
				d, err := digest(r)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench pin:", err)
					return 1
				}
				pins[runLabel(cfgs[i])] = d
			}
			g[name][strconv.FormatUint(seed, 10)] = pins
			w.close()
		}
	}
	if err := writeJSONFile(*path, g); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pin:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench pin: wrote %s (%d workloads × seeds %v)\n", *path, len(g), pinnedSeeds)
	return 0
}

// jobsFor makes serial reference jobs: sharding is an execution knob that
// must not change a digest, so references always run with one shard.
func jobsFor(cfgs []core.Config) []core.Job {
	jobs := make([]core.Job, len(cfgs))
	for i, c := range cfgs {
		c.Shards = 0
		jobs[i] = core.Job{Cfg: c}
	}
	return jobs
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
