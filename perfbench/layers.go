package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"smtpsim/internal/core"
)

// metricDef names one reported metric and its unit; the lists below must
// match BENCHMARK.json (a test checks that they do).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ns_per_node_cycle", "ns"},
	{"peak_rss_mb", "MB"},
}

// sharePackages are the layers host CPU time is folded into.
var sharePackages = []string{
	"sim", "pipeline", "cache", "bpred", "memctrl", "coherence", "ppengine",
	"directory", "network", "addrmap", "node", "machine", "workload", "stats",
	"core", "serve", "runtime", "other",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.runner_busy_frac", "frac"},
		{"core.write_json_ms", "ms"},
		{"core.smtp_vs_int512kb", "ratio"},
		{"workload.build_ms", "ms"},
		{"machine.new_ms", "ms"},
		{"machine.run_ms", "ms"},
		{"machine.check_coherence_ms", "ms"},
		{"stats.snapshot_ms", "ms"},
		{"shard.serial_frac", "frac"},
		{"shard.barrier_waits", "count"},
		{"shard.quanta", "count"},
		{"shard.mean_quantum", "cycles"},
		{"shard.cross_msgs", "count"},
		{"sim.skip_frac", "frac"},
		{"pipeline.retired", "count"},
		{"pipeline.useful_frac", "frac"},
		{"cache.l1d_miss_rate", "frac"},
		{"cache.l2_miss_rate", "frac"},
		{"cache.mshr_alloc_fails", "count"},
		{"bpred.mispredict_rate", "frac"},
		{"memctrl.dispatched", "count"},
		{"coherence.nak_frac", "frac"},
		{"coherence.deferred", "count"},
		{"ppengine.handlers", "count"},
		{"directory.accesses", "count"},
		{"network.sent", "count"},
		{"network.link_wait_frac", "ratio"},
		{"snapshot.encode_ms", "ms"},
		{"snapshot.decode_ms", "ms"},
		{"snapshot.bytes", "bytes"},
		{"serve.handler_us", "us"},
		{"serve.transport_us", "us"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.cache_hit_frac", "frac"},
		{"serve.coalesced", "count"},
		{"serve.rejected", "count"},
		{"serve.hit_p50_ms", "ms"},
		{"serve.hit_p99_ms", "ms"},
		{"serve.miss_p50_ms", "ms"},
		{"serve.miss_p90_ms", "ms"},
		{"serve.req_per_s", "1/s"},
		{"runtime.gc_cycles", "count"},
		{"runtime.alloc_mb", "MB"},
		{"trace.overhead_frac", "frac"},
	}
	for _, p := range sharePackages {
		defs = append(defs, metricDef{"host_share." + p, "frac"})
	}
	return defs
}()

// layerCounts sums deterministic work counts over a set of runs, read from
// each Result's metrics snapshot by the METRICS.md names.
type layerCounts struct {
	retired, squashed                    float64
	l1dHits, l1dMisses, l2Hits, l2Misses float64
	mshrFails, bpLookups, bpMispredicts  float64
	dispatched, naks, deferred           float64
	ppHandlers, dirAccesses              float64
	netSent, linkWaits                   float64
	engineCycles, skipped                float64
	shardedCycles, serialCycles          float64
	parallelCycles, quanta, barrierWaits float64
	crossMsgs                            float64
}

// add folds one completed run into the counts.
func (c *layerCounts) add(r *core.Result) {
	if r == nil || r.Metrics == nil {
		return
	}
	for _, s := range r.Metrics.Samples {
		v := s.Value
		switch genericName(s.Name) {
		case "pipe.ctx.retired", "pipe.proto.retired":
			c.retired += v
		case "pipe.ctx.squashed_uops", "pipe.proto.squashed_uops":
			c.squashed += v
		case "pipe.l1d.hits":
			c.l1dHits += v
		case "pipe.l1d.misses":
			c.l1dMisses += v
		case "pipe.l2.hits":
			c.l2Hits += v
		case "pipe.l2.misses":
			c.l2Misses += v
		case "pipe.mshr.alloc_fails":
			c.mshrFails += v
		case "pipe.bpred.lookups":
			c.bpLookups += v
		case "pipe.bpred.mispredicts":
			c.bpMispredicts += v
		case "mc.dispatched":
			c.dispatched += v
		case "mc.dispatch.nak":
			c.naks += v
		case "deferred_interventions":
			c.deferred += v
		case "pp.handlers":
			c.ppHandlers += v
		case "dir.loads", "dir.stores":
			c.dirAccesses += v
		case "net.sent":
			c.netSent += v
		case "net.link_waits":
			c.linkWaits += v
		}
	}
	engines := 1.0
	if sm := r.ShardMetrics; sm != nil {
		engines = 0
		for _, s := range sm.Samples {
			if strings.HasSuffix(s.Name, ".stepped_cycles") {
				engines++
			}
		}
		c.shardedCycles += float64(r.Cycles)
		c.serialCycles += sm.Value("shard.serial_cycles")
		c.parallelCycles += sm.Value("shard.parallel_cycles")
		c.quanta += sm.Value("shard.quanta")
		c.barrierWaits += sm.Value("shard.barrier_waits")
		c.crossMsgs += sm.Value("shard.cross_msgs")
	}
	c.engineCycles += float64(r.Cycles) * engines
	c.skipped += float64(r.SkippedCycles)
}

// genericName strips the node<i>. prefix and the digits of ctx<t>, so
// per-node and per-context counters sum under one name.
func genericName(name string) string {
	parts := strings.Split(name, ".")
	if len(parts) > 1 && isIndexed(parts[0], "node") {
		parts = parts[1:]
	}
	for i, p := range parts {
		if isIndexed(p, "ctx") {
			parts[i] = "ctx"
		}
	}
	return strings.Join(parts, ".")
}

func isIndexed(s, prefix string) bool {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok || rest == "" {
		return false
	}
	_, err := strconv.Atoi(rest)
	return err == nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics writes the count-derived per-layer metrics.
func (c *layerCounts) metrics(m map[string]float64) {
	if c == nil {
		return
	}
	m["pipeline.retired"] = c.retired
	m["pipeline.useful_frac"] = ratio(c.retired, c.retired+c.squashed)
	m["cache.l1d_miss_rate"] = ratio(c.l1dMisses, c.l1dHits+c.l1dMisses)
	m["cache.l2_miss_rate"] = ratio(c.l2Misses, c.l2Hits+c.l2Misses)
	m["cache.mshr_alloc_fails"] = c.mshrFails
	m["bpred.mispredict_rate"] = ratio(c.bpMispredicts, c.bpLookups)
	m["memctrl.dispatched"] = c.dispatched
	m["coherence.nak_frac"] = ratio(c.naks, c.dispatched)
	m["coherence.deferred"] = c.deferred
	m["ppengine.handlers"] = c.ppHandlers
	m["directory.accesses"] = c.dirAccesses
	m["network.sent"] = c.netSent
	m["network.link_wait_frac"] = ratio(c.linkWaits, c.netSent)
	m["sim.skip_frac"] = ratio(c.skipped, c.engineCycles)
	m["shard.serial_frac"] = ratio(c.serialCycles, c.shardedCycles)
	m["shard.barrier_waits"] = c.barrierWaits
	m["shard.quanta"] = c.quanta
	m["shard.mean_quantum"] = ratio(c.parallelCycles, c.quanta)
	m["shard.cross_msgs"] = c.crossMsgs
}

// hostShares folds the CPU profile's samples into per-layer shares of
// host time. A sample counts for the runtime when its leaf frame is in the
// Go runtime; otherwise for the innermost smtpsim/internal package on its
// stack (so library code a layer calls counts for that layer), and for
// "other" when there is none.
func hostShares(ctx context.Context, profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	known := map[string]bool{}
	for _, p := range sharePackages {
		known[p] = true
	}
	shares := map[string]float64{}
	for _, p := range sharePackages {
		shares[p] = 0
	}
	var total float64
	for _, tr := range parseTraces(out) {
		bucket := "other"
		if len(tr.frames) > 0 && isRuntime(pkgOf(tr.frames[0])) {
			bucket = "runtime"
		} else {
			for _, f := range tr.frames {
				if rest, ok := strings.CutPrefix(pkgOf(f), "smtpsim/internal/"); ok {
					if known[rest] {
						bucket = rest
					}
					break
				}
			}
		}
		shares[bucket] += tr.value
		total += tr.value
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s holds no samples", profile)
	}
	for p := range shares {
		shares[p] /= total
	}
	return shares, nil
}

// stack is one sampled call stack from `pprof -traces`, leaf first.
type stack struct {
	value  float64 // seconds
	frames []string
}

// parseTraces reads `go tool pprof -traces` text: blocks separated by
// dashed lines, each starting with the sample's value and leaf function,
// followed by one caller per line.
func parseTraces(out []byte) []stack {
	var stacks []stack
	var cur *stack
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if cur == nil {
			v, ok := parseDuration(fields[0])
			if !ok || len(fields) < 2 {
				continue // header lines
			}
			stacks = append(stacks, stack{value: v})
			cur = &stacks[len(stacks)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, fields[0])
	}
	return stacks
}

// parseDuration reads a pprof value such as 10ms, 1.50s or 250us.
func parseDuration(s string) (float64, bool) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, false
	}
	return d.Seconds(), true
}

// pkgOf returns the import path of a symbolized Go function name.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may hold paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// shareTable renders the host-share table written beside the spans.
func shareTable(shares map[string]float64) string {
	pkgs := make([]string, 0, len(shares))
	for p := range shares {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return shares[pkgs[i]] > shares[pkgs[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "\n%-24s %8s\n", "host_share", "frac")
	for _, p := range pkgs {
		fmt.Fprintf(&b, "%-24s %8.4f\n", p, shares[p])
	}
	return b.String()
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
