package memctrl

import (
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
)

// msgRing is a power-of-two ring buffer of queued messages, held by value.
// The network input queues used to be plain slices popped with q[1:], which
// walks the backing array forward and forces append to reallocate every
// few hundred messages; the ring reuses its storage forever.
type msgRing struct {
	buf  []network.Message
	head int // index of the oldest element
	size int
}

func (r *msgRing) push(m *network.Message) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = *m
	r.size++
}

// pop copies the oldest message into m and removes it, reporting false
// when the ring is empty.
func (r *msgRing) pop(m *network.Message) bool {
	if r.size == 0 {
		return false
	}
	*m = r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return true
}

func (r *msgRing) grow() {
	n := 2 * len(r.buf)
	if n == 0 {
		n = 16
	}
	nb := make([]network.Message, n)
	for i := 0; i < r.size; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// readTable is a grow-only open-addressed hash table mapping a line address
// to its SDRAM data-ready cycle. It mirrors the exact semantics of the map
// it replaces — entries are inserted or overwritten, never deleted — with
// linear probing over dense arrays instead of runtime map machinery.
type readTable struct {
	keys []uint64
	vals []sim.Cycle
	live []bool
	n    int
}

// newReadTable rounds capHint up to a power of two (min 64).
func newReadTable(capHint int) *readTable {
	capN := 64
	for capN < capHint {
		capN *= 2
	}
	return &readTable{
		keys: make([]uint64, capN),
		vals: make([]sim.Cycle, capN),
		live: make([]bool, capN),
	}
}

// mix64 is the SplitMix64 finalizer: a fixed, platform-independent scramble
// of the line address (whose low 7 bits are always zero).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (t *readTable) get(k uint64) (sim.Cycle, bool) {
	mask := uint64(len(t.keys) - 1)
	for i := mix64(k) & mask; t.live[i]; i = (i + 1) & mask {
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
	return 0, false
}

func (t *readTable) put(k uint64, v sim.Cycle) {
	if 4*t.n >= 3*len(t.keys) {
		t.growTable()
	}
	mask := uint64(len(t.keys) - 1)
	i := mix64(k) & mask
	for t.live[i] {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i], t.live[i] = k, v, true
	t.n++
}

func (t *readTable) growTable() {
	old := *t
	capN := 2 * len(old.keys)
	t.keys = make([]uint64, capN)
	t.vals = make([]sim.Cycle, capN)
	t.live = make([]bool, capN)
	t.n = 0
	for i, ok := range old.live {
		if ok {
			t.put(old.keys[i], old.vals[i])
		}
	}
}
