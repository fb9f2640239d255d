package core

import (
	"bytes"
	"fmt"
	"testing"
)

// ckptJSON renders a completed run deterministically, failing the test on a
// run error.
func ckptJSON(t *testing.T, label string, r *Result) []byte {
	t.Helper()
	if r.Err != nil || !r.Completed {
		t.Fatalf("%s: err=%v completed=%v", label, r.Err, r.Completed)
	}
	var b bytes.Buffer
	if err := WriteRunJSON(&b, r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// snapshotRoundTrip pins the tentpole invariant of checkpoint/restore:
// taking a snapshot mid-run is observably invisible. The uninterrupted run
// is the oracle; the split run (snapshot at ~25% of its cycles, then
// continue in place) and the restored run (fresh machine, restore, run the
// remainder) must both produce byte-identical WriteRunJSON output. The
// checkpoint additionally round-trips through its binary envelope, and the
// restore may happen at a different shard count than the capture.
func snapshotRoundTrip(t *testing.T, cfg Config, resumeShards int) {
	t.Helper()
	r0 := Run(cfg)
	oracle := ckptJSON(t, "uninterrupted", r0)

	at := (r0.Cycles / 4) &^ (SnapshotAlign - 1)
	if at < SnapshotAlign {
		at = SnapshotAlign
	}
	if at >= r0.Cycles {
		t.Skipf("run too short (%d cycles) to checkpoint mid-flight", r0.Cycles)
	}

	ck, r1, err := RunWithSnapshot(cfg, at)
	if err != nil {
		t.Fatalf("RunWithSnapshot: %v", err)
	}
	if ck == nil {
		t.Fatalf("no checkpoint captured at cycle %d of %d", at, r0.Cycles)
	}
	if got := ckptJSON(t, "split", r1); !bytes.Equal(got, oracle) {
		t.Fatalf("split run diverges from uninterrupted run:\n%s", firstJSONDiff(got, oracle))
	}

	// The envelope must round-trip losslessly.
	env, err := ck.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	ck2, err := UnmarshalCheckpoint(env)
	if err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	if ck2.At != ck.At || !bytes.Equal(ck2.Data, ck.Data) {
		t.Fatal("checkpoint envelope round-trip changed the payload")
	}

	resumeCfg := cfg
	resumeCfg.Shards = resumeShards
	r2 := ResumeSnapshot(resumeCfg, ck2)
	if got := ckptJSON(t, "restored", r2); !bytes.Equal(got, oracle) {
		t.Fatalf("restored run diverges from uninterrupted run:\n%s", firstJSONDiff(got, oracle))
	}
	if r2.Cycles != r0.Cycles {
		t.Fatalf("restored run reports %d cycles, uninterrupted %d", r2.Cycles, r0.Cycles)
	}
}

// TestSnapshotDifferential covers the same pinned configurations as
// TestKernelDifferential: the full app x model grid plus the larger and
// multi-threaded machines.
func TestSnapshotDifferential(t *testing.T) {
	type cse struct {
		app   App
		model Model
		nodes int
		way   int
	}
	var cases []cse
	if testing.Short() {
		for _, app := range []App{FFT, Radix} {
			for _, model := range []Model{Base, SMTp} {
				cases = append(cases, cse{app, model, 4, 1})
			}
		}
	} else {
		for _, app := range Apps() {
			for _, model := range Models() {
				cases = append(cases, cse{app, model, 4, 1})
			}
		}
	}
	cases = append(cases,
		cse{FFT, SMTp, 8, 1},
		cse{Ocean, SMTp, 4, 2},
		cse{LU, Int512KB, 4, 2},
	)
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("%s_%s_%dn%dw", c.app, c.model, c.nodes, c.way)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			snapshotRoundTrip(t, Config{
				Model: c.model, App: c.app,
				Nodes: c.nodes, AppThreads: c.way,
				Scale: 0.25, Seed: 42,
			}, 0)
		})
	}
}

// TestSnapshotDifferentialSharded captures checkpoints from sharded runs
// and restores them at different shard counts — including shards captured
// serially and restored at 4, and vice versa. The snapshot stream is
// shard-arrangement independent, so every combination must reproduce the
// uninterrupted serial run byte for byte.
func TestSnapshotDifferentialSharded(t *testing.T) {
	cases := []struct {
		app           App
		model         Model
		nodes, way    int
		capture, into int
	}{
		{FFT, SMTp, 8, 1, 4, 1},
		{FFT, SMTp, 8, 1, 1, 4},
		{Radix, Base, 8, 2, 4, 2},
		{Ocean, SMTp, 16, 1, 4, 8},
		// 32 nodes at 8 shards: the capture lands mid-stream of a run whose
		// windows widen and narrow adaptively, and the restore must re-derive
		// the same quantum sequence from the restored state alone.
		{FFT, SMTp, 32, 2, 8, 8},
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("%s_%s_%dn%dw_s%d_to_s%d", c.app, c.model, c.nodes, c.way, c.capture, c.into)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			snapshotRoundTrip(t, Config{
				Model: c.model, App: c.app,
				Nodes: c.nodes, AppThreads: c.way,
				Scale: 0.25, Seed: 42,
				Shards: c.capture,
			}, c.into)
		})
	}
}

// TestResumeRejectsMismatchedConfig pins the resume-compatibility rules: a
// different workload or machine shape is rejected, while a different shard
// count or an extended cycle budget is allowed.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := Config{Model: SMTp, App: FFT, Nodes: 4, AppThreads: 1, Scale: 0.25, Seed: 42}
	ck, _, err := RunWithSnapshot(cfg, SnapshotAlign)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}

	bad := cfg
	bad.App = Radix
	if r := ResumeSnapshot(bad, ck); r.Err == nil {
		t.Fatal("resume with a different app must fail")
	}
	bad = cfg
	bad.Model = Base
	if r := ResumeSnapshot(bad, ck); r.Err == nil {
		t.Fatal("resume with a different model must fail")
	}
	bad = cfg
	bad.Seed = 43
	if r := ResumeSnapshot(bad, ck); r.Err == nil {
		t.Fatal("resume with a different seed must fail")
	}

	ok := cfg
	ok.Shards = 4
	ok.MaxCycles = 400_000_000
	if r := ResumeSnapshot(ok, ck); r.Err != nil {
		t.Fatalf("resume with shard/budget changes must succeed: %v", r.Err)
	}
}

// TestResumeRejectsEnvelopeCycleMismatch: a resumed run's cycle count
// builds on the envelope's capture cycle, so an envelope that disagrees
// with the cycle its machine snapshot was taken at must fail the resume
// instead of reporting a shifted count.
func TestResumeRejectsEnvelopeCycleMismatch(t *testing.T) {
	cfg := Config{Model: SMTp, App: FFT, Nodes: 4, AppThreads: 1, Scale: 0.25, Seed: 42}
	ck, _, err := RunWithSnapshot(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.At == SnapshotAlign {
		t.Fatalf("want a checkpoint past cycle %d, got %+v", SnapshotAlign, ck)
	}
	for _, at := range []Cycle{ck.At + 4096, SnapshotAlign, 0} {
		bad := *ck
		bad.At = at
		if r := ResumeSnapshot(cfg, &bad); r.Err == nil {
			t.Errorf("envelope cycle %d over a snapshot at cycle %d resumed without error, reporting %d cycles",
				at, ck.At, r.Cycles)
		}
	}
}

// TestResumeNilCheckpoint: RunWithSnapshot returns a nil checkpoint when
// the run ends before the capture point, and resuming from it is an
// error, not a panic.
func TestResumeNilCheckpoint(t *testing.T) {
	cfg := Config{Model: SMTp, App: FFT, Nodes: 4, AppThreads: 1, Scale: 0.25, Seed: 42}
	ck, r, err := RunWithSnapshot(cfg, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if ck != nil || !r.Completed {
		t.Fatalf("want a completed run and no checkpoint, got checkpoint %v, completed %v", ck != nil, r.Completed)
	}
	if res := ResumeSnapshot(cfg, ck); res.Err == nil || res.Completed {
		t.Fatalf("resume from a nil checkpoint: err=%v completed=%v", res.Err, res.Completed)
	}
}

// TestResumeRejectsSampledConfig: resume refuses a sampled config with the
// error capture gives, instead of running the rest of the run in full
// detail and reporting full-detail cycles as a sampled result.
func TestResumeRejectsSampledConfig(t *testing.T) {
	cfg := Config{Model: SMTp, App: FFT, Nodes: 4, AppThreads: 1, Scale: 0.25, Seed: 42}
	ck, _, err := RunWithSnapshot(cfg, SnapshotAlign)
	if err != nil || ck == nil {
		t.Fatalf("capture: checkpoint %v, err %v", ck != nil, err)
	}
	sampled := cfg
	sampled.SamplePeriod = 2000
	sampled.SampleWindow = 4096
	_, _, capErr := RunWithSnapshot(sampled, SnapshotAlign)
	if capErr == nil {
		t.Fatal("capture of a sampled config succeeded")
	}
	bad := *ck
	bad.Cfg = sampled
	r := ResumeSnapshot(sampled, &bad)
	if r.Err == nil {
		t.Fatalf("resume of a sampled config succeeded: completed %v after %d cycles", r.Completed, r.Cycles)
	}
	if r.Err.Error() != capErr.Error() {
		t.Fatalf("resume error %q, capture error %q", r.Err, capErr)
	}
}

// TestSampledRunsDeterministic pins the sampled-simulation mode: sampling
// changes the outcome (that is why SamplePeriod and SampleWindow are
// hashed, unlike Shards), but identical sampled configs must still be
// byte-identical, and a sampled run must finish in fewer detailed cycles
// than the full run it approximates.
func TestSampledRunsDeterministic(t *testing.T) {
	full := Config{Model: SMTp, App: FFT, Nodes: 4, AppThreads: 1, Scale: 0.25, Seed: 42}
	r0 := Run(full)
	if r0.Err != nil || !r0.Completed {
		t.Fatalf("full run: err=%v completed=%v", r0.Err, r0.Completed)
	}

	sampled := full
	sampled.SamplePeriod = 2000
	sampled.SampleWindow = 4096
	ra := Run(sampled)
	ja := ckptJSON(t, "sampled A", ra)
	jb := ckptJSON(t, "sampled B", Run(sampled))
	if !bytes.Equal(ja, jb) {
		t.Fatalf("sampled runs diverge between repeats:\n%s", firstJSONDiff(ja, jb))
	}
	if ra.Cycles >= r0.Cycles {
		t.Fatalf("sampled run took %d detailed cycles, full run %d", ra.Cycles, r0.Cycles)
	}
	if ra.RetiredApp >= r0.RetiredApp {
		t.Fatalf("sampled run retired %d app instructions in detail, full run %d", ra.RetiredApp, r0.RetiredApp)
	}

	// Sampling must be part of the identity; the execution-only shard knob
	// must not be.
	h0, err := full.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hs, err := sampled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h0 == hs {
		t.Fatal("sampled config hashes identically to the full config")
	}
	sharded := full
	sharded.Shards = 4
	hsh, err := sharded.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h0 != hsh {
		t.Fatal("shard count changed the config hash")
	}
}
