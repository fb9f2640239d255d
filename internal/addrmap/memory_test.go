package addrmap

import (
	"runtime"
	"testing"

	"smtpsim/internal/snapshot"
)

// TestMemoryZeroFill pins the zero-fill semantics: a never-written location
// reads as zero through both widths, and the read neither allocates a
// backing slab nor any other heap object.
func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	probes := []uint64{
		0, 8, 4096,
		DirBase, DirBase + 12345*8,
		CodeBase + 512, MMIOBase + 0x10,
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range probes {
			if v := m.Read64(a); v != 0 {
				t.Fatalf("Read64(%#x) = %#x on fresh memory, want 0", a, v)
			}
			if v := m.Read32(a); v != 0 {
				t.Fatalf("Read32(%#x) = %#x on fresh memory, want 0", a, v)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reading untouched memory allocated %.1f objects/run, want 0", allocs)
	}
	if n := m.SlabCount(); n != 0 {
		t.Fatalf("reading untouched memory allocated %d backing slabs, want 0", n)
	}

	// Writes allocate exactly the covering slab; neighbors stay zero.
	m.Write64(DirBase+64, 0x1122334455667788)
	if n := m.SlabCount(); n != 1 {
		t.Fatalf("one write allocated %d slabs, want 1", n)
	}
	if v := m.Read64(DirBase + 64); v != 0x1122334455667788 {
		t.Fatalf("readback = %#x", v)
	}
	if v := m.Read64(DirBase + 72); v != 0 {
		t.Fatalf("neighbor of first write = %#x, want 0", v)
	}
}

// TestMemoryWidths cross-checks the two access widths against each other
// on the little-endian layout.
func TestMemoryWidths(t *testing.T) {
	m := NewMemory()
	m.Write64(128, 0x8877665544332211)
	if lo := m.Read32(128); lo != 0x44332211 {
		t.Fatalf("low half = %#x", lo)
	}
	if hi := m.Read32(132); hi != 0x88776655 {
		t.Fatalf("high half = %#x", hi)
	}
	m.Write32(132, 0xdeadbeef)
	if v := m.Read64(128); v != 0xdeadbeef44332211 {
		t.Fatalf("after partial overwrite = %#x", v)
	}
}

// TestMemorySlabBoundaries exercises accesses on both sides of slab and
// group boundaries.
func TestMemorySlabBoundaries(t *testing.T) {
	m := NewMemory()
	edges := []uint64{
		SlabSize - 8, SlabSize, // adjacent slabs in one group
		(1 << groupShift) - 8, 1 << groupShift, // adjacent groups
	}
	for i, a := range edges {
		m.Write64(a, uint64(i)+1)
	}
	for i, a := range edges {
		if v := m.Read64(a); v != uint64(i)+1 {
			t.Fatalf("Read64(%#x) = %d, want %d", a, v, i+1)
		}
	}
	if n := m.SlabCount(); n != 4 {
		t.Fatalf("slab count = %d, want 4", n)
	}
}

// BenchmarkDirEntryRMW measures the protocol thread's hottest memory
// pattern — read a directory entry, modify, write back — and pins it at
// zero steady-state allocations (run with -benchmem).
func BenchmarkDirEntryRMW(b *testing.B) {
	m := NewMemory()
	const nodes = 16
	// Warm the working set so the timed region hits existing slabs.
	for line := uint64(0); line < 4096; line++ {
		m.Write32(DirAddrOf(line*CoherenceLineSize, nodes), uint32(line))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := DirAddrOf(uint64(i%4096)*CoherenceLineSize, nodes)
		v := m.Read32(addr)
		m.Write32(addr, v|1<<31)
	}
}

// TestMemoryLoadStateRejectsBadSlabs: decoded slab coordinates outside the
// address space are a decode error, never a huge allocation, a panic, or a
// slab silently restored at another address.
func TestMemoryLoadStateRejectsBadSlabs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hi, mid int
	}{
		{"negative group", -3, 0},
		{"group past the address space", maxGroups, 0},
		{"huge group", 1 << 40, 0},
		{"negative slab", 256, -1},
		{"slab past its group", 256, groupSlabs},
		{"slab far past its group", 256, 1 << 20},
	} {
		e := snapshot.NewEncoder()
		e.Mark("mem")
		e.Int(1)
		e.Int(tc.hi)
		e.Int(tc.mid)
		e.Bytes(make([]byte, SlabSize))
		d, err := snapshot.NewDecoder(e.Finish())
		if err != nil {
			t.Fatal(err)
		}
		m := NewMemory()
		m.LoadState(d)
		if d.Err() == nil {
			t.Errorf("%s: LoadState accepted slab %d/%d", tc.name, tc.hi, tc.mid)
		}
		if n := m.SlabCount(); n != 0 {
			t.Errorf("%s: rejected snapshot left %d slabs", tc.name, n)
		}
	}

	// The edges of the valid range still round-trip.
	m := NewMemory()
	top := uint64(maxGroups)<<groupShift - 8
	m.Write64(0, 1)
	m.Write64(top, 2)
	e := snapshot.NewEncoder()
	m.SaveState(e)
	d, err := snapshot.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	r := NewMemory()
	r.LoadState(d)
	if err := d.Err(); err != nil {
		t.Fatalf("valid edges rejected: %v", err)
	}
	if r.Read64(0) != 1 || r.Read64(top) != 2 {
		t.Fatal("valid edge slabs did not round-trip")
	}
}

// TestMemoryFirstWriteFootprint: the first directory write to an empty
// store allocates its slab plus a constant-size index — not a table sized
// by the address space. TotalAlloc is process-wide, so a runtime
// allocation inside the measured window (a busy host, the race detector)
// can inflate one reading: the test keeps the smallest of several fresh
// stores' readings.
func TestMemoryFirstWriteFootprint(t *testing.T) {
	const indexBytes = 256
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		m := NewMemory()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Write32(DirAddrOf(12345*CoherenceLineSize, 16), 7)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if n := m.SlabCount(); n != 1 {
			t.Fatalf("first write allocated %d slabs, want 1", n)
		}
	}
	if least > SlabSize+indexBytes {
		t.Fatalf("first write allocated at least %d bytes, want at most one %d-byte slab plus %d bytes of index",
			least, SlabSize, indexBytes)
	}
}
