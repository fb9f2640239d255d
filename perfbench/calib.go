package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on are shared: their throughput per core
// drifts by ±15% over seconds and flips between modes roughly 1.6× apart
// over minutes, as neighbours load the sibling hardware threads. That
// drift moves every timing of a run together, so the benchmark measures it
// with a fixed piece of work of its own — the calibration — interleaved
// with the timed work, and reports times rescaled to a host on which the
// calibration's median takes calNominal. The calibration lives here, outside the
// program, so no change to the program can move it.

// calNominal is the calibration time that defines the reporting unit:
// normalized seconds are seconds on a host that runs the calibration in
// exactly this long.
const calNominal = 20 * time.Millisecond

// calibrator owns the calibration's working set, one per busy worker:
// larger than the L2 cache, walked at random with data-dependent branches
// and some allocation, like the simulator's own inner loops. The sets are
// mapped outside the Go heap, so they neither count toward the heap goal
// that paces the program's garbage collections nor get scanned by them;
// they are simply resident, a fixed amount peak_rss_mb leaves out.
type calibrator struct {
	mapped [][]byte
	sets   [][]uint64
	keep   [][]*calNode
}

type calNode struct {
	v    uint64
	next *calNode
}

const (
	calWords    = 1 << 20 // 8 MiB per worker
	calSteps    = 1 << 20
	calSegments = 5 // a calibration is the median of this many timed segments
)

// newCalibrator makes the working sets for a workload that keeps busy
// workers busy.
func newCalibrator(busy int) *calibrator {
	c := &calibrator{sets: make([][]uint64, busy), keep: make([][]*calNode, busy)}
	for i := range c.sets {
		b, err := syscall.Mmap(-1, 0, calWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			b = make([]byte, calWords*8) // no anonymous mappings: fall back to the heap
		} else {
			c.mapped = append(c.mapped, b)
		}
		c.sets[i] = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calWords)
		for j := range c.sets[i] {
			c.sets[i][j] = uint64(j) * 0x9e3779b97f4a7c15
		}
		c.keep[i] = make([]*calNode, 1024)
	}
	return c
}

// residentBytes is the size of the working sets, which stay resident from
// newCalibrator to close.
func (c *calibrator) residentBytes() float64 { return float64(len(c.sets) * calWords * 8) }

// close unmaps the working sets.
func (c *calibrator) close() {
	for _, b := range c.mapped {
		_ = syscall.Munmap(b)
	}
	c.mapped, c.sets = nil, nil
}

// measure runs the calibration on every busy worker at once and returns
// the median wall time of its segments, so one segment slowed by a
// neighbour's burst does not skew it. It collects the heap first, so no
// collection work the simulator left behind runs during the calibration
// and slows it.
func (c *calibrator) measure() time.Duration {
	runtime.GC()
	segs := make([]float64, calSegments)
	for s := range segs {
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range c.sets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				calSink[i] = calWork(c.sets[i], c.keep[i], uint64(i)+1)
			}(i)
		}
		wg.Wait()
		segs[s] = time.Since(t0).Seconds()
	}
	return time.Duration(median(segs) * float64(time.Second))
}

// calSink keeps the calibration's result live.
var calSink [workers]uint64

func calWork(set []uint64, keep []*calNode, seed uint64) uint64 {
	x, sum := seed, uint64(0)
	mask := uint64(len(set) - 1)
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := set[j]
		if v&3 == 0 {
			sum += v >> 2
		} else {
			sum ^= v * 31
		}
		set[j] = v + x
		if i&63 == 0 {
			k := int(x>>40) & (len(keep) - 1)
			keep[k] = &calNode{v: sum, next: keep[(k+1)&(len(keep)-1)]}
		}
	}
	return sum
}
