package core

import (
	"bytes"
	"testing"

	"smtpsim/internal/coherence"
	"smtpsim/internal/machine"
	"smtpsim/internal/workload"
)

// runWithTable runs w under cfg on a machine whose nodes all use table,
// installed through machine.Config.Protocol (the hook the named protocols
// resolve into), so a test can read the table's own state such as the
// ReVive log. Registering a protocol name instead would change the
// registry that TestRegistryValidation pins.
func runWithTable(t *testing.T, cfg Config, w *workload.Workload, table *coherence.Table) *Result {
	t.Helper()
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	mc := machineConfig(c)
	mc.Protocol = table
	m := machine.New(mc)
	workload.Attach(m, w)
	cycles, done := m.Run(c.MaxCycles)
	return harvest(c, m, cycles, done)
}

// TestReviveExtensionEndToEnd runs the ReVive logging protocol on a real
// SMTp machine: the run must stay coherent, write log records, and cost
// measurable extra time relative to the base protocol — the paper's §6
// claim that protocol-thread extensions are a software change with
// protocol-occupancy-sized overheads.
func TestReviveExtensionEndToEnd(t *testing.T) {
	cfg := Config{Model: SMTp, App: Radix, Nodes: 4, AppThreads: 1, Scale: 0.25, Seed: 13}
	w := BuildWorkload(cfg)

	base := RunWorkload(cfg, w)
	if !base.Completed || base.CoherenceErr != nil {
		t.Fatalf("base run failed: %v", base.CoherenceErr)
	}

	log := coherence.NewReviveLog()
	rev := runWithTable(t, cfg, w, coherence.NewReviveTable(log))
	if !rev.Completed {
		t.Fatal("revive run did not complete")
	}
	if rev.CoherenceErr != nil {
		t.Fatalf("revive run broke coherence: %v", rev.CoherenceErr)
	}
	if log.Entries == 0 {
		t.Fatal("no log records written")
	}
	// At tiny scales timing noise can hide the cost; bound it loosely here
	// (the revive example and BenchmarkExtensionRevive report the overhead
	// at larger scale).
	overhead := (float64(rev.Cycles) - float64(base.Cycles)) / float64(base.Cycles)
	if overhead < -0.10 || overhead > 0.5 {
		t.Fatalf("logging overhead %.1f%% implausible (base=%d revive=%d)",
			100*overhead, base.Cycles, rev.Cycles)
	}
	if rev.RetiredProto <= base.RetiredProto {
		t.Fatal("the extension must retire extra protocol instructions")
	}
}

// TestReviveNamedProtocolMatchesCustomTable: selecting the extension by
// name ("revive") and installing a hand-built table on the machine are the
// same run, byte for byte — the named selector is a pure
// serialization-layer change.
func TestReviveNamedProtocolMatchesCustomTable(t *testing.T) {
	cfg := Config{Model: SMTp, App: Radix, Nodes: 2, AppThreads: 1, Scale: 0.25, Seed: 13}
	w := BuildWorkload(cfg)

	named := cfg
	named.Proto = ProtoRevive
	rn := RunWorkload(named, w)
	if rn.CoherenceErr != nil {
		t.Fatalf("named revive run broke coherence: %v", rn.CoherenceErr)
	}
	rc := runWithTable(t, cfg, w, coherence.NewReviveTable(coherence.NewReviveLog()))
	jn, jc := ckptJSON(t, "named revive", rn), ckptJSON(t, "custom revive", rc)
	if !bytes.Equal(jn, jc) {
		t.Fatalf("named and custom revive diverge:\n%s", firstJSONDiff(jn, jc))
	}
}

// TestReviveOnPPModels: the same protocol table runs on the embedded
// protocol processor models — protocol programmability is not specific to
// SMTp.
func TestReviveOnPPModels(t *testing.T) {
	log := coherence.NewReviveLog()
	cfg := Config{Model: Int512KB, App: Water, Nodes: 2, AppThreads: 1, Scale: 0.25, Seed: 3}
	res := runWithTable(t, cfg, BuildWorkload(cfg), coherence.NewReviveTable(log))
	if !res.Completed || res.CoherenceErr != nil {
		t.Fatalf("run failed: %v", res.CoherenceErr)
	}
	if log.Entries == 0 {
		t.Fatal("PP model must also write log records")
	}
}
