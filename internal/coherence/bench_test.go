package coherence

import (
	"testing"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/directory"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
)

// benchEnv is an allocation-free Env: a real directory over sparse memory,
// and an L2 that holds every line dirty and records nothing.
type benchEnv struct {
	id   addrmap.NodeID
	amap *addrmap.Map
	dir  *directory.Directory
}

func (e *benchEnv) NodeID() addrmap.NodeID               { return e.id }
func (e *benchEnv) Nodes() int                           { return 4 }
func (e *benchEnv) HomeOf(a uint64) addrmap.NodeID       { return e.amap.HomeOf(a) }
func (e *benchEnv) DirLoad(a uint64) directory.Entry     { return e.dir.Load(a) }
func (e *benchEnv) DirStore(a uint64, d directory.Entry) { e.dir.Store(a, d) }
func (e *benchEnv) DirEntryAddr(a uint64) uint64         { return e.dir.EntryAddr(a) }
func (e *benchEnv) CacheProbe(uint64) cache.State        { return cache.Modified }
func (e *benchEnv) CacheInvalidate(uint64) bool          { return true }
func (e *benchEnv) CacheDowngrade(uint64) bool           { return true }
func (e *benchEnv) LocalMissOutstanding(uint64) bool     { return false }

// BenchmarkHandlerDispatch measures one dispatch per message type the way
// the memory controller performs it: run the handler into a recycled trace
// buffer through a reused context, then fire (take) every effect the trace
// names from the arena. Node 2 handles each message for a line it homes;
// the directory entry is reset before every dispatch so each iteration
// takes the same path. Pinned at zero allocations.
func BenchmarkHandlerDispatch(b *testing.B) {
	const (
		self = addrmap.NodeID(2)
		addr = uint64(2 * addrmap.PageSize) // homed at node 2 of 4
	)
	cases := []struct {
		t     MsgType
		entry directory.Entry
	}{
		{MsgPIRead, directory.Entry{}},
		{MsgPIWrite, directory.Entry{State: directory.Shared, Sharers: 1<<0 | 1<<3}},
		{MsgPIUpgrade, directory.Entry{State: directory.Shared, Sharers: 1<<2 | 1<<3}},
		{MsgPIWriteback, directory.Entry{State: directory.Dirty, Owner: self}},
		{MsgGET, directory.Entry{State: directory.Dirty, Owner: 3}},
		{MsgGETX, directory.Entry{State: directory.Shared, Sharers: 1<<0 | 1<<3}},
		{MsgUPGRADE, directory.Entry{State: directory.Shared, Sharers: 1<<1 | 1<<3}},
		{MsgWB, directory.Entry{State: directory.Dirty, Owner: 1}},
		{MsgINVAL, directory.Entry{}},
		{MsgISHARED, directory.Entry{}},
		{MsgIEXCL, directory.Entry{}},
		{MsgPUT, directory.Entry{}},
		{MsgPUTX, directory.Entry{}},
		{MsgUPGACK, directory.Entry{}},
		{MsgNAK, directory.Entry{}},
		{MsgIACK, directory.Entry{}},
		{MsgWBACK, directory.Entry{}},
		{MsgSHWB, directory.Entry{State: directory.BusyShared, Owner: 3, Pending: 1}},
		{MsgXFER, directory.Entry{State: directory.BusyExcl, Owner: 3, Pending: 1}},
		{MsgIVNAK, directory.Entry{State: directory.BusyExcl, Owner: 3, Pending: 1}},
	}
	for _, tc := range cases {
		b.Run(tc.t.String(), func(b *testing.B) {
			env := &benchEnv{id: self, amap: addrmap.NewMap(4), dir: directory.New(addrmap.NewMemory(), 4)}
			tab := DefaultTable()
			fx := NewEffectArena()
			c := &Ctx{Effects: fx}
			var msg network.Message
			var buf []isa.Instr
			dispatch := func() {
				env.dir.Store(addr, tc.entry)
				msg = network.Message{Src: 1, Dst: self, Requester: 1, VC: tc.t.VC(), Type: uint8(tc.t), Addr: addr}
				if tc.t.IsLocalPI() {
					msg.Src, msg.Requester = self, self
				}
				buf = tab.HandleInto(c, env, &msg, buf)
				for i := range buf {
					if h := buf[i].Effect; h != 0 {
						fx.Take(h)
					}
				}
			}
			dispatch() // grow the trace buffer, arena and directory slab
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dispatch()
			}
		})
	}
}
