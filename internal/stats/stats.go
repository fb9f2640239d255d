// Package stats provides the lightweight statistics primitives used
// throughout the simulator: named counters, peak/average trackers for
// resource occupancy (paper Table 9), and ratio helpers for the occupancy
// and characterization tables.
package stats

// Counter is a monotonically increasing event count.
//
//simlint:shardlocal -- each instrument instance belongs to the component that registered it, which lives on exactly one shard; registries only read them at snapshot points with all shards parked
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Peak tracks the maximum of a sampled quantity together with the number of
// samples, e.g. peak protocol-thread occupancy of the integer queue.
//
//simlint:shardlocal -- owned by the sampling component's shard, like Counter
type Peak struct {
	max     int
	samples uint64
	sum     uint64
}

// Sample records one observation.
func (p *Peak) Sample(v int) {
	if v > p.max {
		p.max = v
	}
	p.samples++
	p.sum += uint64(v)
}

// SampleN records the same observation n times — the bulk path for cycles
// the kernel elides. Equivalent to n Sample(v) calls.
func (p *Peak) SampleN(v int, n uint64) {
	if n == 0 {
		return
	}
	if v > p.max {
		p.max = v
	}
	p.samples += n
	p.sum += uint64(v) * n
}

// Max returns the largest observation (zero if none).
func (p *Peak) Max() int { return p.max }

// Mean returns the average observation (zero if none).
func (p *Peak) Mean() float64 {
	if p.samples == 0 {
		return 0
	}
	return float64(p.sum) / float64(p.samples)
}

// Samples returns the number of observations.
func (p *Peak) Samples() uint64 { return p.samples }

// Reset clears all state.
func (p *Peak) Reset() { *p = Peak{} }

// State exposes the tracker's raw fields for snapshot serialization.
func (p *Peak) State() (max int, samples, sum uint64) {
	return p.max, p.samples, p.sum
}

// SetState restores the tracker's raw fields from a snapshot.
func (p *Peak) SetState(max int, samples, sum uint64) {
	p.max, p.samples, p.sum = max, samples, sum
}

// Ratio returns num/den as a float, or 0 when den == 0.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Percent returns 100*num/den, or 0 when den == 0.
func Percent(num, den uint64) float64 {
	return 100 * Ratio(num, den)
}
