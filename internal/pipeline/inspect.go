package pipeline

import (
	"fmt"
	"sort"

	"smtpsim/internal/cache"
)

// L2Lines iterates the valid L2 (and L2 bypass buffer) lines for the
// machine-level coherence checker.
func (p *Pipeline) L2Lines(fn func(tag uint64, st cache.State)) {
	p.l2.Lines(fn)
	if p.l2byp != nil {
		p.l2byp.Lines(fn)
	}
}

// CheckInclusion verifies that every valid L1 line is covered by a valid L2
// (or bypass) line.
func (p *Pipeline) CheckInclusion() error {
	var err error
	check := func(level string) func(tag uint64, st cache.State) {
		return func(tag uint64, st cache.State) {
			if err != nil {
				return
			}
			if p.l2.Probe(tag) == nil && (p.l2byp == nil || p.l2byp.Probe(tag) == nil) {
				err = fmt.Errorf("%s line %#x (%v) not present in L2: inclusion violated", level, tag, st)
			}
		}
	}
	p.l1d.Lines(check("L1D"))
	if p.dbyp != nil {
		p.dbyp.Lines(check("DBypass"))
	}
	// The L1I holds read-only code; inclusion matters for the data side.
	return err
}

// CheckNoLeaks verifies that no transaction state is left over after a
// quiesced run.
func (p *Pipeline) CheckNoLeaks() error {
	if n := p.mshr.InUse(); n != 0 {
		return fmt.Errorf("%d MSHRs leaked", n)
	}
	if p.mshr.StoreSlotBusy() {
		return fmt.Errorf("retiring-store MSHR leaked")
	}
	if len(p.storeBuf) != 0 {
		return fmt.Errorf("%d store-buffer entries leaked", len(p.storeBuf))
	}
	if len(p.wbPending) != 0 {
		return fmt.Errorf("%d writebacks never acknowledged", len(p.wbPending))
	}
	// Report the lowest leaking line so the error text is deterministic.
	lines := make([]uint64, 0, len(p.acksWanted))
	for line := range p.acksWanted {
		if p.acksWanted[line] != 0 {
			lines = append(lines, line)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	if len(lines) > 0 {
		return fmt.Errorf("line %#x still expects %d invalidation acks", lines[0], p.acksWanted[lines[0]])
	}
	return nil
}

// ProtoStats returns the SMTp dispatch statistics (zeros on non-SMTp cores).
func (p *Pipeline) ProtoStats() (dispatched, lookAheadStarts, switchStalls uint64) {
	if p.proto == nil {
		return 0, 0, 0
	}
	return p.proto.HandlersDispatched, p.proto.LookAheadStarts, p.proto.SwitchStallCycles
}

// Cfg returns the pipeline configuration.
func (p *Pipeline) Cfg() Config { return p.cfg }
