package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"smtpsim/internal/machine"
	"smtpsim/internal/snapshot"
	"smtpsim/internal/workload"
)

// SnapshotAlign re-exports the machine's snapshot alignment: checkpoints
// can only be captured at cycles that are a multiple of this (the engine's
// batch quantum, which is also the sharded quantum edge).
const SnapshotAlign = machine.SnapshotAlign

// Checkpoint is a portable mid-run capture: the canonical configuration
// the machine was built from, the cycle it was captured at, and the
// machine's snapshot bytes. A checkpoint restores into any machine built
// from an equivalent configuration — including one with a different shard
// count, since the snapshot stream is shard-arrangement independent
// (DESIGN.md §14).
type Checkpoint struct {
	Cfg  Config
	At   Cycle
	Data []byte
}

// ckptMark tags the checkpoint envelope inside the versioned snapshot
// container format.
const ckptMark = "ckpt"

// MarshalBinary encodes the checkpoint as a self-describing binary
// envelope: the snapshot container header, the canonical config JSON, the
// capture cycle, and the machine snapshot bytes.
func (ck *Checkpoint) MarshalBinary() ([]byte, error) {
	canon, err := ck.Cfg.Canonical()
	if err != nil {
		return nil, err
	}
	e := snapshot.NewEncoder()
	e.Mark(ckptMark)
	e.Bytes(canon)
	e.U64(uint64(ck.At))
	e.Bytes(ck.Data)
	return e.Finish(), nil
}

// UnmarshalCheckpoint decodes an envelope written by MarshalBinary.
func UnmarshalCheckpoint(b []byte) (*Checkpoint, error) {
	d, err := snapshot.NewDecoder(b)
	if err != nil {
		return nil, err
	}
	d.Expect(ckptMark)
	canon := d.Bytes()
	at := Cycle(d.U64())
	data := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(canon, &cfg); err != nil {
		return nil, fmt.Errorf("checkpoint config: %w", err)
	}
	return &Checkpoint{Cfg: cfg, At: at, Data: data}, nil
}

// resumeKey is the canonical form with the knobs a resume may legitimately
// change neutralized: the shard count (already absent from the canonical
// form — it cannot change a result byte) and the cycle budget (a resume
// may extend it). Everything else — workload, machine shape, tweaks,
// protocol, sampling — must match exactly.
func resumeKey(c Config) (string, error) {
	c.MaxCycles = 0
	c.Shards = 0
	b, err := c.Canonical()
	return string(b), err
}

// errSampledSnapshot rejects sampled configs on both sides of a
// checkpoint: a sampled run interleaves fast-forward state the envelope
// does not carry, so it can neither be captured nor resumed.
var errSampledSnapshot = errors.New("core: sampled runs cannot be checkpointed")

// RunWithSnapshot is RunWithSnapshotContext with a background context.
func RunWithSnapshot(cfg Config, at Cycle) (*Checkpoint, *Result, error) {
	return RunWithSnapshotContext(context.Background(), cfg, at)
}

// RunWithSnapshotContext runs cfg from cycle zero, captures a checkpoint
// at the first SnapshotAlign multiple >= at, and continues the same
// machine to completion. The returned Result is identical to an
// uninterrupted RunContext (pinned by the snapshot differential suite).
// The checkpoint is nil when the run completed or was cancelled before the
// capture point. Sampled runs cannot be checkpointed: they interleave
// non-cycle state the envelope does not carry.
func RunWithSnapshotContext(ctx context.Context, cfg Config, at Cycle) (*Checkpoint, *Result, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, &Result{Cfg: cfg, Err: err}, err
	}
	if c.SamplePeriod > 0 {
		return nil, &Result{Cfg: cfg, Err: errSampledSnapshot}, errSampledSnapshot
	}
	if at <= 0 {
		err := fmt.Errorf("core: snapshot cycle %d must be positive", at)
		return nil, &Result{Cfg: cfg, Err: err}, err
	}
	at = (at + SnapshotAlign - 1) &^ (SnapshotAlign - 1)

	start := time.Now() //simlint:allow determinism -- host-side wall-time observability; never feeds simulated state
	m := machine.New(machineConfig(c))
	workload.Attach(m, BuildWorkload(c))

	budget := c.MaxCycles
	leg := at
	if leg > budget {
		leg = budget
	}
	cycles, done := m.RunContext(ctx, leg)
	var ck *Checkpoint
	if !done && ctx.Err() == nil && cycles == at {
		data, serr := m.Snapshot()
		if serr != nil {
			return nil, &Result{Cfg: c, Err: serr}, serr
		}
		ck = &Checkpoint{Cfg: c, At: at, Data: data}
	}
	if !done && ctx.Err() == nil && cycles < budget {
		ran, d2 := m.RunContext(ctx, budget-cycles)
		cycles += ran
		done = d2
	}
	r := harvest(c, m, cycles, done)
	r.SkippedCycles = m.SkippedCycles()
	if !done && ctx.Err() != nil {
		r.Err = ctx.Err()
	}
	observe(r, start)
	return ck, r, nil
}

// ResumeSnapshot is ResumeSnapshotContext with a background context.
func ResumeSnapshot(cfg Config, ck *Checkpoint) *Result {
	return ResumeSnapshotContext(context.Background(), cfg, ck)
}

// ResumeSnapshotContext builds a fresh machine from cfg, restores the
// checkpoint into it, and runs the remainder of the cycle budget. The
// config must describe the same run the checkpoint was captured from; only
// the shard count and the cycle budget may differ (see resumeKey). The
// Result accounts for the full run: Cycles includes the checkpointed
// prefix, and all counters continue from their restored values, so the
// output is byte-identical to an uninterrupted run of the same config. A
// nil checkpoint (RunWithSnapshot's answer for a run that ended before the
// capture point) is an error, and so is a sampled config, which capture
// rejects too.
func ResumeSnapshotContext(ctx context.Context, cfg Config, ck *Checkpoint) *Result {
	if ck == nil {
		return &Result{Cfg: cfg, Err: fmt.Errorf("core: no checkpoint to resume (the run ended before the capture point)")}
	}
	c, err := cfg.withDefaults()
	if err != nil {
		return &Result{Cfg: cfg, Err: err}
	}
	if c.SamplePeriod > 0 {
		return &Result{Cfg: cfg, Err: errSampledSnapshot}
	}
	ckKey, err := resumeKey(ck.Cfg)
	if err != nil {
		return &Result{Cfg: cfg, Err: fmt.Errorf("checkpoint config: %w", err)}
	}
	// c passed withDefaults, so its canonical form cannot fail.
	if key, _ := resumeKey(c); key != ckKey {
		return &Result{Cfg: cfg, Err: fmt.Errorf(
			"core: checkpoint was captured under a different configuration:\n  have %s\n  want %s", ckKey, key)}
	}
	if c.MaxCycles < ck.At {
		return &Result{Cfg: cfg, Err: fmt.Errorf(
			"core: cycle budget %d is below the checkpoint cycle %d", c.MaxCycles, ck.At)}
	}

	start := time.Now() //simlint:allow determinism -- host-side wall-time observability; never feeds simulated state
	m := machine.New(machineConfig(c))
	workload.Attach(m, BuildWorkload(c))
	if err := m.Restore(ck.Data); err != nil {
		return &Result{Cfg: cfg, Err: err}
	}
	// The reported cycle count builds on ck.At, so the envelope must agree
	// with the cycle the machine snapshot itself was taken at.
	if now := m.Eng.Now(); now != ck.At {
		return &Result{Cfg: cfg, Err: fmt.Errorf(
			"core: checkpoint envelope says cycle %d, but its machine snapshot was taken at cycle %d", ck.At, now)}
	}
	ran, done := m.RunContext(ctx, c.MaxCycles-ck.At)
	r := harvest(c, m, ck.At+ran, done)
	r.SkippedCycles = m.SkippedCycles()
	if !done && ctx.Err() != nil {
		r.Err = ctx.Err()
	}
	observe(r, start)
	return r
}
