// Revive: the paper's §6 argues that once the coherence protocol is
// software on the protocol thread, extensions like ReVive-style rollback
// logging (Prvulovic et al., ISCA 2002) become a protocol-code change
// instead of new hardware. This example swaps in the logging protocol table
// on an unmodified SMTp machine, takes periodic checkpoints, and measures
// what the fault-tolerance layer costs.
package main

import (
	"fmt"
	"log"

	"smtpsim/internal/coherence"
	"smtpsim/internal/core"
)

// protoReviveLogged is the shipped ReVive protocol registered a second
// time, under its own name, by a factory that keeps each run's log where
// main can read it. RegisterProtocol is how custom protocol code enters a
// run: the config still names it, so it stays serializable.
const protoReviveLogged = "revive_logged"

// lastLog is the log of the most recent machine built with
// protoReviveLogged. main runs one simulation at a time, so the run it just
// finished owns it.
var lastLog *coherence.ReviveLog

func init() {
	core.RegisterProtocol(protoReviveLogged, func() *coherence.Table {
		lastLog = coherence.NewReviveLog()
		return coherence.NewReviveTable(lastLog)
	})
}

func main() {
	cfg := core.Config{
		Model: core.SMTp, App: core.Radix, Nodes: 4, AppThreads: 1,
		Scale: 0.5, Seed: 21,
	}
	w := core.BuildWorkload(cfg)

	base := core.RunWorkload(cfg, w)
	if !base.Completed || base.CoherenceErr != nil {
		log.Fatalf("base run failed: %v", base.CoherenceErr)
	}

	// The logging protocol ships with the simulator, so selecting it is one
	// named field — the config stays serializable and cacheable.
	ext := cfg
	ext.Proto = core.ProtoRevive
	rev := core.RunWorkload(ext, w)
	if !rev.Completed || rev.CoherenceErr != nil {
		log.Fatalf("revive run failed: %v", rev.CoherenceErr)
	}

	// Extension-internal state (the log record count) is not a registered
	// metric; to read it, run the log-exposing registration. Same protocol,
	// same workload: the run must land on the same cycle count as the
	// shipped one.
	logged := cfg
	logged.Proto = protoReviveLogged
	if r := core.RunWorkload(logged, w); r.Cycles != rev.Cycles {
		log.Fatalf("log-exposing protocol diverged from the shipped one: %d vs %d cycles",
			r.Cycles, rev.Cycles)
	}

	fmt.Println("ReVive-style logging as a protocol-thread extension (Radix-Sort, 4-node SMTp):")
	fmt.Printf("  base protocol:    %9d cycles, %6d protocol instructions retired\n",
		base.Cycles, base.RetiredProto)
	fmt.Printf("  logging protocol: %9d cycles, %6d protocol instructions retired\n",
		rev.Cycles, rev.RetiredProto)
	fmt.Printf("  log records written: %d (one per first write to a line per epoch)\n", lastLog.Entries)
	fmt.Printf("  overhead: %.2f%% execution time — no hardware changed, only protocol code\n",
		100*float64(rev.Cycles-base.Cycles)/float64(base.Cycles))
}
