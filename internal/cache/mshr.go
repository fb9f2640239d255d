package cache

import "smtpsim/internal/stats"

// MSHRClass says who is allocating a miss-status holding register.
type MSHRClass uint8

// Allocation classes.
const (
	// ClassApp is an ordinary application load/store/prefetch miss.
	ClassApp MSHRClass = iota
	// ClassStoreRetire is a retiring store draining from the store buffer;
	// it may use the dedicated "+1" entry (paper Table 2).
	ClassStoreRetire
	// ClassProtocol is a protocol-thread miss; in SMTp one general entry is
	// reserved so the protocol thread can always make progress (§2.2).
	ClassProtocol
)

// MSHREntry tracks one outstanding line miss. Waiters holds the sequence
// numbers of the operations waiting on the refill, in join order; the
// owner (the pipeline's load/store machinery) resolves each one when the
// refill arrives, before it frees the entry. The slot keeps the waiter
// array across allocations, so joining a miss allocates nothing once the
// array has grown.
type MSHREntry struct {
	LineAddr  uint64
	Exclusive bool // ownership (write) request
	Class     MSHRClass
	Issued    bool // request has left for the memory system
	AcksLeft  int  // eager-exclusive replies: invalidation acks still due
	Waiters   []uint64

	// Gen is a file-wide allocation generation, unique per Alloc. Retry
	// timers that captured an entry pointer use it to check, across a
	// snapshot/restore boundary, that the entry they find is the same
	// allocation they were armed for and not a later reuse of the slot.
	Gen uint64

	inUse     bool
	storeSlot bool // occupying the dedicated retiring-store entry
}

// MSHRFile is the miss-status holding register file: `general` shared
// entries plus one dedicated retiring-store entry. When protocolReserved is
// set (SMTp), application classes may use at most general-1 of the shared
// entries.
type MSHRFile struct {
	general          []MSHREntry
	storeEntry       MSHREntry
	protocolReserved bool
	allocSeq         uint64

	AllocFails uint64
}

// NewMSHRFile builds a file with the given number of general entries.
func NewMSHRFile(general int, protocolReserved bool) *MSHRFile {
	return &MSHRFile{
		general:          make([]MSHREntry, general),
		protocolReserved: protocolReserved,
	}
}

// InUse returns the number of occupied general entries.
func (f *MSHRFile) InUse() int {
	n := 0
	for i := range f.general {
		if f.general[i].inUse {
			n++
		}
	}
	return n
}

// StoreSlotBusy reports whether the dedicated retiring-store entry is taken.
func (f *MSHRFile) StoreSlotBusy() bool { return f.storeEntry.inUse }

// Find returns the entry outstanding for lineAddr, or nil.
func (f *MSHRFile) Find(lineAddr uint64) *MSHREntry {
	for i := range f.general {
		if f.general[i].inUse && f.general[i].LineAddr == lineAddr {
			return &f.general[i]
		}
	}
	if f.storeEntry.inUse && f.storeEntry.LineAddr == lineAddr {
		return &f.storeEntry
	}
	return nil
}

// CanAlloc reports whether a new entry of the given class could be allocated
// right now.
func (f *MSHRFile) CanAlloc(class MSHRClass) bool {
	free := len(f.general) - f.InUse()
	switch class {
	case ClassProtocol:
		return free >= 1
	case ClassStoreRetire:
		if !f.storeEntry.inUse {
			return true
		}
		fallthrough
	default: // ClassApp, or store-retire overflowing into general entries
		if f.protocolReserved {
			return free >= 2 // one general entry is protocol-only
		}
		return free >= 1
	}
}

// Alloc creates an entry for lineAddr. Callers must Find first: allocating a
// line that is already outstanding is a bug and panics. Returns nil when the
// class's capacity is exhausted.
func (f *MSHRFile) Alloc(lineAddr uint64, exclusive bool, class MSHRClass) *MSHREntry {
	if f.Find(lineAddr) != nil {
		panic("cache: MSHR double allocation")
	}
	if !f.CanAlloc(class) {
		f.AllocFails++
		return nil
	}
	f.allocSeq++
	if class == ClassStoreRetire && !f.storeEntry.inUse {
		f.storeEntry = MSHREntry{
			LineAddr: lineAddr, Exclusive: exclusive, Class: class,
			Waiters: f.storeEntry.Waiters[:0],
			Gen:     f.allocSeq, inUse: true, storeSlot: true,
		}
		return &f.storeEntry
	}
	for i := range f.general {
		if !f.general[i].inUse {
			f.general[i] = MSHREntry{
				LineAddr: lineAddr, Exclusive: exclusive, Class: class,
				Waiters: f.general[i].Waiters[:0],
				Gen:     f.allocSeq, inUse: true,
			}
			return &f.general[i]
		}
	}
	panic("cache: CanAlloc said yes but no free entry")
}

// Free releases an entry, keeping its waiter array (emptied) for the
// slot's next allocation: callers must be done reading Waiters.
func (f *MSHRFile) Free(e *MSHREntry) {
	if !e.inUse {
		panic("cache: MSHR double free")
	}
	*e = MSHREntry{Waiters: e.Waiters[:0]}
}

// Entries calls fn on every in-use entry (leak checking in tests).
func (f *MSHRFile) Entries(fn func(*MSHREntry)) {
	for i := range f.general {
		if f.general[i].inUse {
			fn(&f.general[i])
		}
	}
	if f.storeEntry.inUse {
		fn(&f.storeEntry)
	}
}

// RegisterMetrics publishes the MSHR file's counters under the given scope.
func (f *MSHRFile) RegisterMetrics(s *stats.Scope) {
	s.CounterFunc("alloc_fails", func() uint64 { return f.AllocFails })
	s.GaugeFunc("in_use", func() float64 { return float64(f.InUse()) })
}
