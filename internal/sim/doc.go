// Package sim provides the deterministic simulation kernel shared by all
// components of the SMTp machine model: a global cycle counter expressed in
// processor clocks, a timed event heap for latencies that are most naturally
// expressed as "call me back in N cycles" (SDRAM accesses, network hops), and
// clock-divided tickers for components that run slower than the core (the
// memory controller at half the core clock, the Base model's off-chip
// controller at 400 MHz).
//
// The kernel is single-threaded and fully deterministic: components are
// ticked in registration order and events scheduled for the same cycle fire
// in FIFO order of scheduling. Determinism is the foundation of the repo's
// reproducibility story — identical configurations produce identical cycle
// counts, identical metrics snapshots, and byte-identical experiment
// tables regardless of host, worker count, or wall-clock conditions.
//
// Time is modeled in three ways, chosen per component for cost:
//
//   - Clocked components are ticked every period cycles in registration
//     order: plain ones (AddClocked) at every due cycle, lazy ones
//     (AddLazy, the Lazy interface) only when they have work. The
//     pipelines tick every cycle; the memory controllers, which tick the
//     Base/Int* models' embedded protocol processors, every ClockDiv
//     cycles; an optional metrics recorder (machine.Config.SampleInterval)
//     ticks at the sampling interval.
//   - One-shot events (Schedule/After) model point latencies: a network
//     hop completing, SDRAM data becoming ready. An event is nothing but
//     its descriptor (Desc: owner, kind, packed arguments); when it comes
//     due the engine hands the descriptor to the fire function it was
//     built with, which routes it to the component that scheduled it. The
//     same descriptor is what a snapshot stores and restore pushes back,
//     so live and restored events run the same code. Same-cycle events
//     fire in scheduling order, which keeps cross-component races
//     deterministic.
//   - Busy-until scalars live inside components (SDRAM banks, network
//     links): cheap bandwidth modeling with no events at all.
//
// The kernel is event-driven with cycle skipping: the event queue is a
// monomorphic 4-ary min-heap of pointer-free 48-byte entries (no boxing,
// no per-Push allocation at steady state), each clocked component
// carries a precomputed next-tick due time instead of being
// modulo-scanned every cycle, and lazy components can declare themselves
// idle until a future cycle. When every component is quiescent and no
// event is due, Run jumps straight to the earliest due time, handing lazy
// components the count of elided ticks so per-cycle deltas (cycle
// counters, occupancy samples) stay exact; a lazy component that is due
// but idle while others stay busy defers its ticks and settles them in
// bulk when input arrives. The skip is observably invisible:
// NewReferenceEngine is the same engine except that AddLazy registers a
// plain component, so every component ticks at every due cycle, and
// differential tests pin identical cycle counts and metrics between the
// two. See DESIGN.md, "Kernel fast path".
//
// The package also houses Rand, a SplitMix64 generator; all randomness in
// the simulator flows through seeded instances of it.
package sim
