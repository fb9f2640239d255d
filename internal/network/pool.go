package network

// Pool is a free-list recycler for protocol Messages. Every hot producer
// (coherence handlers via the dispatch context, the processor interface via
// the controller) draws messages from the machine's pool, and every message
// sink — the controllers' dispatch units, where a handled message dies —
// releases them back, so steady-state protocol traffic allocates nothing.
//
// The pool is single-threaded, like everything inside one machine's event
// loop. Under the poolcheck build tag Put poisons the released message and
// AssertLive catches later use; without the tag both are free.
//
//simlint:shardlocal -- pools are per-endpoint on sharded machines; a shard only ever draws from and releases to its own free list during a window
type Pool struct {
	free []*Message

	// Gets/Puts/News count pool traffic; News is the number of Gets that
	// had to allocate (the pool high-water mark).
	Gets uint64
	Puts uint64
	News uint64
}

// NewPool returns an empty pool. The Network embeds the machine-wide pool
// (see Network.MsgPool); standalone pools are for tests and tools.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed, live Message.
func (p *Pool) Get() *Message {
	p.Gets++
	if k := len(p.free); k > 0 {
		m := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		*m = Message{}
		return m
	}
	p.News++
	return &Message{} //simlint:allow hotalloc -- pool cold path: grows the free list once per high-water mark
}

// GetCopy returns a live pooled message carrying the contents of src, a
// message held by value outside any pool (a fired send effect's).
func (p *Pool) GetCopy(src *Message) *Message {
	m := p.Get()
	ps := m.poolState
	*m = *src
	m.poolState = ps
	return m
}

// Put releases m to the pool. The caller must hold the only live reference;
// under the poolcheck build tag the message is poisoned so a stale reference
// fails loudly. Put(nil) is a no-op.
func (p *Pool) Put(m *Message) {
	if m == nil {
		return
	}
	m.poison()
	p.Puts++
	p.free = append(p.free, m)
}
