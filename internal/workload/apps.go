package workload

import "smtpsim/internal/isa"

// The six applications. Every builder produces, per thread, a stream whose
// loop structure, instruction mix, data partitioning and sharing pattern
// follow the corresponding program's published behaviour; absolute sizes
// are scaled (Params.Scale) so full machine sweeps complete in seconds.

// buildFFT models the blocked 1M-point radix-sqrt(n) six-step FFT: local
// butterfly passes over the thread's row partition separated by an
// all-to-all blocked transpose (the dominant communication), with
// hand-inserted prefetching and padding/tiling (each element's line is
// touched once per pass).
func buildFFT(p Params) *Workload {
	w := &Workload{Name: "FFT"}
	const bytesPerPoint = 16 // complex double
	points := scaleInt(4096, p.Scale, 64*p.sizing())
	placeBlocked(w, regionA, bytesPerPoint, points, p)
	placeBlocked(w, regionB, bytesPerPoint, points, p)
	w.Barriers = append(w.Barriers, BarrierDef{Obj: 1, N: p.Threads})

	pointsPerLine := lineSize / bytesPerPoint // 8
	var scratch []isa.Instr
	for g := 0; g < p.Threads; g++ {
		gn := newGen(p, g, scratch)
		lo, hi := partition(points, p.Threads, g)
		myLines := (hi - lo) / pointsPerLine

		for pass := 0; pass < 2; pass++ {
			// Local butterfly pass over my partition: load a line of
			// points, ~10 FP ops per point, store back.
			gn.loop(myLines, func() {
				base := regionA + uint64(lo*bytesPerPoint)
				a := base + uint64(gn.rng.Intn(maxInt(myLines, 1)))*lineSize
				gn.prefetch(a+lineSize, false)
				r := gn.load(a, true)
				gn.load(a+8, true)
				gn.fpCompute(20, r) // butterflies over the 8 points of the line
				gn.store(a, gn.faux)
				gn.store(a+8, gn.faux)
			})
			gn.barrier(1)

			// Transpose: read a block from every other thread's partition
			// of B (all-to-all), write into mine in A.
			blockLines := maxInt(myLines/maxInt(p.Threads, 1), 1)
			for t := 0; t < p.Threads; t++ {
				src := (g + t) % p.Threads // staggered to avoid hot spots
				slo, shi := partition(points, p.Threads, src)
				srcLines := maxInt((shi-slo)/pointsPerLine, 1)
				// Each thread reads a disjoint slice of the source
				// partition: a transpose touches every line exactly once.
				idx := 0
				gn.loop(blockLines, func() {
					srcLine := (g*blockLines + idx) % srcLines
					idx++
					ra := regionB + uint64(slo*bytesPerPoint) +
						uint64(srcLine)*lineSize
					wa := regionA + uint64(lo*bytesPerPoint) +
						uint64(gn.rng.Intn(maxInt(myLines, 1)))*lineSize
					gn.prefetch(ra+lineSize, false)
					r := gn.load(ra, true)
					gn.fpCompute(5, r)
					gn.store(wa, gn.faux)
				})
			}
			gn.barrier(1)
		}
		scratch = gn.finish(w)
	}
	return w
}

// buildFFTW models the 8192x16x16-point 3D FFT with 32x32 blocking: like
// FFT but with three (per-dimension) rounds, finer-grained transpose blocks
// touching more remote lines per phase, and heavier integer address
// arithmetic (FFTW's codelets are register-hungry — the paper found it the
// one application sensitive to integer register count).
func buildFFTW(p Params) *Workload {
	w := &Workload{Name: "FFTW"}
	const bytesPerPoint = 16
	points := scaleInt(4096, p.Scale, 64*p.sizing())
	placeBlocked(w, regionA, bytesPerPoint, points, p)
	placeBlocked(w, regionB, bytesPerPoint, points, p)
	w.Barriers = append(w.Barriers, BarrierDef{Obj: 1, N: p.Threads})

	pointsPerLine := lineSize / bytesPerPoint
	var scratch []isa.Instr
	for g := 0; g < p.Threads; g++ {
		gn := newGen(p, g, scratch)
		lo, hi := partition(points, p.Threads, g)
		myLines := maxInt((hi-lo)/pointsPerLine, 1)

		for dim := 0; dim < 3; dim++ {
			// Codelet pass: more integer work and registers than FFT.
			gn.loop(myLines, func() {
				a := regionA + uint64(lo*bytesPerPoint) +
					uint64(gn.rng.Intn(myLines))*lineSize
				gn.intCompute(6) // twiddle index arithmetic
				r := gn.load(a, true)
				gn.load(a+8, true)
				gn.fpCompute(10, r)
				gn.intCompute(4)
				gn.store(a, gn.faux)
			})
			gn.barrier(1)
			// Fine-grained transpose: half-block reads from every peer.
			for t := 0; t < p.Threads; t++ {
				src := (g + t + 1) % p.Threads
				slo, shi := partition(points, p.Threads, src)
				srcLines := maxInt((shi-slo)/pointsPerLine, 1)
				idx := 0
				blk := maxInt(3*myLines/maxInt(2*p.Threads, 2), 1)
				gn.loop(blk, func() {
					srcLine := (g*blk + idx) % srcLines
					idx++
					ra := regionB + uint64(slo*bytesPerPoint) +
						uint64(srcLine)*lineSize
					gn.intCompute(2)
					r := gn.load(ra, true)
					gn.fpCompute(4, r)
					gn.store(regionA+uint64(lo*bytesPerPoint)+
						uint64(gn.rng.Intn(myLines))*lineSize, gn.faux)
				})
			}
			gn.barrier(1)
		}
		scratch = gn.finish(w)
	}
	return w
}

// buildLU models the 512x512 blocked dense LU factorization: per step the
// diagonal-block owner factorizes locally (O(b^3) FP work), then every
// thread owning a perimeter block reads the diagonal block (one-to-many
// broadcast) and updates its own blocks with heavy local FP compute —
// computation dominates communication, which is why the paper finds LU
// insensitive to controller integration.
func buildLU(p Params) *Workload {
	w := &Workload{Name: "LU"}
	const blockBytes = 16 * 16 * 8 // 16x16 doubles
	steps := scaleInt(6, p.Scale, 3)
	totalBlocks := 4 * p.sizing() // fixed problem size for strong scaling
	placeBlocked(w, regionA, blockBytes, totalBlocks, p)
	w.Barriers = append(w.Barriers, BarrierDef{Obj: 1, N: p.Threads})

	blockAddr := func(b int) uint64 { return regionA + uint64(b*blockBytes) }
	ownerOf := func(b int) int {
		for t := 0; t < p.Threads; t++ {
			lo, hi := partition(totalBlocks, p.Threads, t)
			if b >= lo && b < hi {
				return t
			}
		}
		return p.Threads - 1
	}
	linesPerBlock := blockBytes / lineSize // 16

	var scratch []isa.Instr
	for g := 0; g < p.Threads; g++ {
		gn := newGen(p, g, scratch)
		myLo, myHi := partition(totalBlocks, p.Threads, g)
		for k := 0; k < steps; k++ {
			diagBlock := k % totalBlocks
			diag := blockAddr(diagBlock) // this step's pivot block
			if g == ownerOf(diagBlock) {
				// Factorize the diagonal block: O(b^3) local FP.
				gn.loop(linesPerBlock, func() {
					a := diag + uint64(gn.rng.Intn(linesPerBlock))*lineSize
					r := gn.load(a, true)
					gn.fpCompute(72, r)
					gn.emit(instFPDiv())
					gn.store(a, gn.faux)
				})
			}
			gn.barrier(1)
			// Perimeter update: read the (remote) diagonal block once,
			// then update my blocks with large FP kernels.
			gn.loop(linesPerBlock/2, func() {
				gn.load(diag+uint64(gn.rng.Intn(linesPerBlock))*lineSize, true)
				gn.fpCompute(10, gn.faux)
			})
			for b := myLo; b < myHi; b++ {
				mine := blockAddr(b)
				gn.loop(linesPerBlock, func() {
					a := mine + uint64(gn.rng.Intn(linesPerBlock))*lineSize
					r := gn.load(a, true)
					gn.fpCompute(64, r)
					gn.store(a, gn.faux)
				})
			}
			gn.barrier(1)
		}
		scratch = gn.finish(w)
	}
	return w
}

// buildOcean models the 514x514-grid multigrid solver: red-black stencil
// sweeps over each thread's band of rows, sharing only the boundary rows
// with the two neighbouring threads, with frequent barriers between sweeps
// (and the paper's optimized test-lock-test-set-unlock global error lock
// once per iteration).
func buildOcean(p Params) *Workload {
	w := &Workload{Name: "Ocean"}
	rowBytes := 8 * lineSize // one grid row = 8 lines
	rows := scaleInt(64, p.Scale, 4*p.sizing())
	placeBlocked(w, regionA, rowBytes, rows, p)
	w.Barriers = append(w.Barriers, BarrierDef{Obj: 1, N: p.Threads})
	errLock := regionC // global error lock line
	w.Places = append(w.Places, PlaceDef{Addr: regionC, Size: 2 * lineSize, Home: 0})

	rowAddr := func(r, l int) uint64 {
		return regionA + uint64(r)*uint64(rowBytes) + uint64(l)*lineSize
	}
	iters := scaleInt(4, p.Scale, 2)
	linesPerRow := rowBytes / lineSize

	var scratch []isa.Instr
	for g := 0; g < p.Threads; g++ {
		gn := newGen(p, g, scratch)
		lo, hi := partition(rows, p.Threads, g)
		for it := 0; it < iters; it++ {
			for r := lo; r < hi; r++ {
				row := r
				gn.loop(linesPerRow, func() {
					l := gn.rng.Intn(linesPerRow)
					// 5-point stencil: my row plus the rows above/below
					// (remote lines at the band boundaries).
					c := gn.load(rowAddr(row, l), true)
					if row > 0 {
						gn.load(rowAddr(row-1, l), true)
					}
					if row < rows-1 {
						gn.load(rowAddr(row+1, l), true)
					}
					gn.fpCompute(6, c)
					gn.store(rowAddr(row, l), gn.faux)
				})
			}
			// Global error reduction under the (optimized) lock.
			gn.lockAcquire(7, errLock)
			r := gn.load(errLock+lineSize, true)
			gn.fpCompute(2, r)
			gn.store(errLock+lineSize, gn.faux)
			gn.lockRelease(7, errLock)
			gn.barrier(1)
		}
		scratch = gn.finish(w)
	}
	return w
}

// buildRadix models the 2M-key radix sort (radix 32): a local histogram
// pass, a prefix-sum step serialized through thread 0 reading every
// histogram (one-to-many), and the permutation pass whose scattered remote
// writes are the application's signature all-to-all write traffic.
func buildRadix(p Params) *Workload {
	w := &Workload{Name: "Radix-Sort"}
	keys := scaleInt(8192, p.Scale, 128*p.sizing())
	const keyBytes = 8
	placeBlocked(w, regionA, keyBytes, keys, p) // source keys
	placeBlocked(w, regionB, keyBytes, keys, p) // destination
	w.Barriers = append(w.Barriers, BarrierDef{Obj: 1, N: p.Threads})
	// Per-thread histograms: one region, thread-blocked.
	const histBytes = 32 * 8
	placeBlocked(w, regionC, histBytes, p.Threads, p)

	keysPerLine := lineSize / keyBytes
	var scratch []isa.Instr
	for g := 0; g < p.Threads; g++ {
		gn := newGen(p, g, scratch)
		lo, hi := partition(keys, p.Threads, g)
		myLines := maxInt((hi-lo)/keysPerLine, 1)
		for pass := 0; pass < 2; pass++ {
			// Histogram: stream my keys, integer binning.
			gn.loop(myLines, func() {
				a := regionA + uint64(lo*keyBytes) + uint64(gn.rng.Intn(myLines))*lineSize
				gn.prefetch(a+lineSize, false)
				gn.load(a, false)
				gn.load(a+64, false)
				gn.intCompute(20)               // bin all 16 keys of the line
				gn.condBranch(gn.rng.Bool(0.3)) // bin compare
				gn.condBranch(gn.rng.Bool(0.7))
				gn.store(regionC+uint64(g*histBytes)+uint64(gn.rng.Intn(4))*64, gn.iaux)
			})
			gn.barrier(1)
			// Prefix sum: thread 0 reads every histogram and publishes
			// global offsets.
			if g == 0 {
				for t := 0; t < p.Threads; t++ {
					gn.load(regionC+uint64(t*histBytes), false)
					gn.intCompute(2)
				}
				for t := 0; t < p.Threads; t++ {
					gn.store(regionC+uint64(t*histBytes)+128, gn.iaux)
				}
			}
			gn.barrier(1)
			// Permutation: my keys scatter across the whole destination
			// array — remote exclusive misses everywhere.
			gn.loop(myLines, func() {
				src := regionA + uint64(lo*keyBytes) + uint64(gn.rng.Intn(myLines))*lineSize
				dst := regionB + uint64(gn.rng.Intn(keys/keysPerLine))*lineSize
				k := gn.load(src, false)
				gn.intCompute(10)      // rank computation for the line's keys
				gn.prefetch(dst, true) // prefetch exclusive
				gn.store(dst, k)
			})
			gn.barrier(1)
		}
		scratch = gn.finish(w)
	}
	return w
}

// buildWater models the 1024-molecule N-body code over 3 time steps:
// compute-dominated O(n^2) pairwise force evaluation with read-sharing of
// molecule records, lock-protected global accumulations, and migratory
// updates of each thread's own molecules. Its protocol activity is tiny
// and its protocol branches barely train — both paper observations.
func buildWater(p Params) *Workload {
	w := &Workload{Name: "Water"}
	molecules := scaleInt(128, p.Scale, 8*p.sizing())
	molBytes := lineSize // one record per line
	placeBlocked(w, regionA, molBytes, molecules, p)
	w.Places = append(w.Places, PlaceDef{Addr: regionC, Size: 4 * lineSize, Home: 0})
	w.Barriers = append(w.Barriers, BarrierDef{Obj: 1, N: p.Threads})

	steps := scaleInt(3, p.Scale, 2)
	molAddr := func(i int) uint64 { return regionA + uint64(i)*uint64(molBytes) }
	var scratch []isa.Instr
	for g := 0; g < p.Threads; g++ {
		gn := newGen(p, g, scratch)
		lo, hi := partition(molecules, p.Threads, g)
		for s := 0; s < steps; s++ {
			// Pairwise forces: each of my molecules against a sample of
			// all others (heavy FP per interaction).
			for i := lo; i < hi; i++ {
				mine := molAddr(i)
				gn.loop(6, func() {
					// The cutoff radius keeps most interactions local; a
					// fraction reaches molecules owned by other threads.
					var other uint64
					if gn.rng.Bool(0.25) {
						other = molAddr(gn.rng.Intn(molecules))
					} else {
						other = molAddr(lo + gn.rng.Intn(maxInt(hi-lo, 1)))
					}
					r := gn.load(other, true)
					gn.load(mine, true)
					gn.fpCompute(44, r)
					gn.emit(instFPDiv())
					gn.fpCompute(14, gn.faux)
					gn.emit(instFPDiv())
					gn.condBranch(gn.rng.Bool(0.5)) // cutoff test: untrainable
				})
				gn.store(mine, gn.faux) // accumulate into my record
			}
			// Global potential-energy accumulation under a lock.
			gn.lockAcquire(9, regionC)
			r := gn.load(regionC+lineSize, true)
			gn.fpCompute(3, r)
			gn.store(regionC+lineSize, gn.faux)
			gn.lockRelease(9, regionC)
			gn.barrier(1)
			// Update phase: migratory writes to my own molecules.
			for i := lo; i < hi; i++ {
				r := gn.load(molAddr(i), true)
				gn.fpCompute(24, r)
				gn.store(molAddr(i), gn.faux)
			}
			gn.barrier(1)
		}
		scratch = gn.finish(w)
	}
	return w
}

// instFPDiv is a double-precision divide (19 cycles, unpipelined class).
func instFPDiv() isa.Instr {
	return isa.Instr{Op: isa.OpFPDivDP, Dst: isa.FirstFP, Src1: isa.FirstFP + 1}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
