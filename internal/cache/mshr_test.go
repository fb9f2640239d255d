package cache

import (
	"testing"

	"smtpsim/internal/snapshot"
)

func TestMSHRAllocFindFree(t *testing.T) {
	f := NewMSHRFile(4, false)
	e := f.Alloc(0x100, false, ClassApp)
	if e == nil {
		t.Fatal("alloc failed with free entries")
	}
	if f.Find(0x100) != e {
		t.Fatal("Find did not return the allocated entry")
	}
	if f.Find(0x200) != nil {
		t.Fatal("Find invented an entry")
	}
	e.Waiters = append(e.Waiters, 1, 2)
	f.Free(e)
	if f.Find(0x100) != nil || f.InUse() != 0 {
		t.Fatal("entry not freed")
	}
}

// TestMSHRWaiterAllocatesNothing: a slot keeps its waiter array across
// Free and Alloc, so a miss that registers a waiter allocates nothing once
// the array has grown, and a reallocated entry starts with no waiters.
func TestMSHRWaiterAllocatesNothing(t *testing.T) {
	f := NewMSHRFile(4, false)
	miss := func() {
		e := f.Alloc(0x100, false, ClassApp)
		e.Waiters = append(e.Waiters, 7)
		f.Free(e)
	}
	miss()
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Fatalf("a miss with one waiter allocates %.2f times, want 0", n)
	}
	if e := f.Alloc(0x100, false, ClassStoreRetire); len(e.Waiters) != 0 {
		t.Fatalf("a fresh entry starts with waiters %v", e.Waiters)
	}
	if e := f.Alloc(0x200, false, ClassApp); len(e.Waiters) != 0 {
		t.Fatalf("a reallocated entry starts with waiters %v", e.Waiters)
	}
}

func TestMSHRCapacity(t *testing.T) {
	f := NewMSHRFile(2, false)
	if f.Alloc(0, false, ClassApp) == nil || f.Alloc(64, false, ClassApp) == nil {
		t.Fatal("allocs within capacity failed")
	}
	if f.Alloc(128, false, ClassApp) != nil {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if f.AllocFails != 1 {
		t.Fatalf("AllocFails=%d, want 1", f.AllocFails)
	}
}

func TestMSHRStoreRetireSlot(t *testing.T) {
	f := NewMSHRFile(1, false)
	a := f.Alloc(0, false, ClassApp)
	if a == nil {
		t.Fatal("app alloc failed")
	}
	// General entries full, but the dedicated store slot remains.
	s := f.Alloc(64, true, ClassStoreRetire)
	if s == nil {
		t.Fatal("store-retire should use its dedicated entry")
	}
	if !f.StoreSlotBusy() {
		t.Fatal("store slot should be busy")
	}
	// A second store-retire miss falls back to general entries (none free).
	if f.Alloc(128, true, ClassStoreRetire) != nil {
		t.Fatal("no capacity should remain")
	}
	f.Free(a)
	// Now a store-retire can use a general entry even with its slot busy.
	if f.Alloc(128, true, ClassStoreRetire) == nil {
		t.Fatal("store-retire should overflow into free general entries")
	}
}

func TestMSHRProtocolReservation(t *testing.T) {
	f := NewMSHRFile(2, true)
	if f.Alloc(0, false, ClassApp) == nil {
		t.Fatal("first app alloc must succeed")
	}
	// Second general entry is reserved for the protocol thread.
	if f.Alloc(64, false, ClassApp) != nil {
		t.Fatal("app thread must not take the protocol-reserved entry")
	}
	p := f.Alloc(64, false, ClassProtocol)
	if p == nil {
		t.Fatal("protocol thread must get the reserved entry")
	}
	if f.Alloc(128, false, ClassProtocol) != nil {
		t.Fatal("protocol alloc beyond capacity must fail")
	}
}

func TestMSHRNoReservationWithoutSMTp(t *testing.T) {
	f := NewMSHRFile(2, false)
	f.Alloc(0, false, ClassApp)
	if f.Alloc(64, false, ClassApp) == nil {
		t.Fatal("without SMTp all general entries serve the application")
	}
}

func TestMSHRDoubleAllocPanics(t *testing.T) {
	f := NewMSHRFile(2, false)
	f.Alloc(0, false, ClassApp)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocation must panic")
		}
	}()
	f.Alloc(0, true, ClassApp)
}

func TestMSHRDoubleFreePanics(t *testing.T) {
	f := NewMSHRFile(2, false)
	e := f.Alloc(0, false, ClassApp)
	f.Free(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	f.Free(e)
}

func TestMSHREntriesIteration(t *testing.T) {
	f := NewMSHRFile(4, false)
	f.Alloc(0, false, ClassApp)
	f.Alloc(64, true, ClassStoreRetire)
	n := 0
	f.Entries(func(e *MSHREntry) { n++ })
	if n != 2 {
		t.Fatalf("Entries visited %d, want 2", n)
	}
}

// TestMSHRLoadStateRejectsCorruptWaiterCount: a waiter count that cannot fit
// in the stream is a decode error, never an allocation sized from it.
func TestMSHRLoadStateRejectsCorruptWaiterCount(t *testing.T) {
	e := snapshot.NewEncoder()
	e.Mark("mshr")
	e.U64(0) // allocSeq
	e.U64(0) // AllocFails
	e.Int(1) // one general entry
	e.Bool(true)
	e.U64(0x100)
	e.Bool(false)
	e.U8(uint8(ClassApp))
	e.Bool(true)
	e.Int(0)
	e.U64(1)
	e.Bool(false)
	e.Int(1 << 60) // waiters
	d, err := snapshot.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	f := NewMSHRFile(1, false)
	f.LoadState(d)
	if d.Err() == nil {
		t.Fatal("LoadState accepted 2^60 waiters")
	}
}
