// Package machine assembles full DSM configurations: N nodes (paper Table
// 4's five machine models), the bristled-hypercube interconnect, a global
// synchronization manager for the workloads' barriers and locks, the run
// loop, and the end-of-run coherence invariant checker.
//
// A Machine is a passive assembly — New wires engine, network, nodes and
// synchronization together but simulates nothing until Run/RunContext
// steps the shared event engine. Every engine fires its due events through
// the machine's fire method, which routes each event descriptor by kind to
// the network, pipeline or memory controller of the node that owns it. The five models differ only in how the
// protocol execution backend is provisioned (embedded protocol processor
// vs the SMTp protocol thread) and in memory-controller placement and
// clocking; everything else — core, caches, network, directory layout —
// is identical, which is what makes the paper's comparisons apples to
// apples.
//
// Observability: New also creates the machine-wide metrics registry
// (Machine.Reg) and threads a stats.Scope through every subsystem, so all
// counters are reachable under stable dotted names (node3.pipe.l2.misses,
// net.sent, ...; the schema is documented in METRICS.md). Setting
// Config.SampleInterval additionally registers a clocked recorder that
// snapshots the registry into a ring buffer for time-series analysis.
// Neither mechanism perturbs simulated time: registration happens at build
// time and reads happen via closures at snapshot instants.
//
// After a completed run, CheckCoherence validates machine-wide invariants
// (single-writer, directory/cache agreement, L1/L2 inclusion, no leaked
// MSHRs) — the repo's strongest defense against silent protocol bugs.
package machine
