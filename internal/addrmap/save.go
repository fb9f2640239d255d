package addrmap

import "smtpsim/internal/snapshot"

// SaveState serializes the sparse store as a list of allocated slabs in
// ascending address order, each named by its group and its index within
// the group — the index's own sorted order, never a map. Untouched slabs
// are absent on both sides: reads of absent memory return zero before and
// after a round trip.
func (m *Memory) SaveState(e *snapshot.Encoder) {
	e.Mark("mem")
	e.Int(len(m.nums))
	for i, num := range m.nums {
		e.Int(int(num >> (groupShift - SlabShift)))
		e.Int(int(num & groupMask))
		e.Bytes(m.slabs[i][:])
	}
}

// LoadState restores state saved by SaveState, replacing the store's
// contents: slabs not present in the snapshot are dropped, which is
// observationally identical to zeroing them.
func (m *Memory) LoadState(d *snapshot.Decoder) {
	d.Expect("mem")
	*m = Memory{}
	for i, n := 0, d.Int(); i < n && d.Err() == nil; i++ {
		hi := d.Int()
		mid := d.Int()
		b := d.Bytes()
		if d.Err() != nil {
			return
		}
		if hi < 0 || hi >= maxGroups || mid < 0 || mid >= groupSlabs {
			d.Fail("slab %d/%d outside the %d-bit address space (%d groups of %d slabs)",
				hi, mid, physBits, maxGroups, groupSlabs)
			return
		}
		if len(b) != SlabSize {
			d.Fail("slab %d/%d has %d bytes, want %d", hi, mid, len(b), SlabSize)
			return
		}
		addr := uint64(hi)<<groupShift | uint64(mid)<<SlabShift
		s := m.slabOf(addr, true)
		copy(s[:], b)
	}
}
