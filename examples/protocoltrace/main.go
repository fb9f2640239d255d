// Protocoltrace: the protocol-thread mechanism is software — this example
// drives the coherence handlers directly, walking a three-hop read
// transaction (requester -> home -> dirty owner -> requester) and printing
// the exact instruction trace the SMTp protocol thread would fetch and
// execute for each handler, including the directory loads/stores, the
// resolved branches, the sends, and the trailing switch/ldctxt pair.
package main

import (
	"fmt"

	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/coherence"
	"smtpsim/internal/directory"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
)

// env is a minimal coherence environment for three stand-alone nodes.
type env struct {
	id   addrmap.NodeID
	amap *addrmap.Map
	dir  *directory.Directory
	l2   map[uint64]cache.State
}

func newEnv(id addrmap.NodeID, amap *addrmap.Map) *env {
	return &env{id: id, amap: amap,
		dir: directory.New(addrmap.NewMemory(), 4),
		l2:  map[uint64]cache.State{}}
}

func (e *env) NodeID() addrmap.NodeID               { return e.id }
func (e *env) Nodes() int                           { return 4 }
func (e *env) HomeOf(a uint64) addrmap.NodeID       { return e.amap.HomeOf(a) }
func (e *env) DirLoad(a uint64) directory.Entry     { return e.dir.Load(a) }
func (e *env) DirStore(a uint64, d directory.Entry) { e.dir.Store(a, d) }
func (e *env) DirEntryAddr(a uint64) uint64         { return e.dir.EntryAddr(a) }
func (e *env) CacheProbe(l uint64) cache.State      { return e.l2[l] }
func (e *env) LocalMissOutstanding(l uint64) bool   { return false }
func (e *env) CacheInvalidate(l uint64) bool {
	was := e.l2[l]
	delete(e.l2, l)
	return was == cache.Modified
}
func (e *env) CacheDowngrade(l uint64) bool {
	was := e.l2[l]
	if was.Writable() {
		e.l2[l] = cache.Shared
	}
	return was == cache.Modified
}

// show prints one handler's trace and fires its effects out of fx: sends
// come back as the messages to deliver next.
func show(who string, fx *coherence.EffectArena, tr []isa.Instr) []*network.Message {
	fmt.Printf("-- handler at %s (%d instructions):\n", who, len(tr))
	var out []*network.Message
	for _, in := range tr {
		line := fmt.Sprintf("   %08x  %-10s ", in.PC, in.Op)
		switch {
		case in.Op == isa.OpBranch:
			dir := "not-taken"
			if in.Taken {
				dir = fmt.Sprintf("taken -> %08x", in.Target)
			}
			line += dir
		case in.Op.IsMem():
			line += fmt.Sprintf("addr=%#x", in.Addr)
		}
		if in.Effect != 0 {
			switch e := fx.Take(in.Effect); e.Kind {
			case coherence.EffSend:
				m := e.Msg
				line += fmt.Sprintf("   => send %v to node %d", coherence.MsgType(m.Type), m.Dst)
				out = append(out, &m)
			case coherence.EffRefill:
				line += "   => refill local cache"
			}
		}
		fmt.Println(line)
	}
	return out
}

func main() {
	amap := addrmap.NewMap(4)
	nodes := make([]*env, 4)
	for i := range nodes {
		nodes[i] = newEnv(addrmap.NodeID(i), amap)
	}
	addr := uint64(2 * addrmap.PageSize) // homed at node 2
	// Node 3 owns the line dirty; node 1 will read it.
	nodes[2].dir.Store(addr, directory.Entry{State: directory.Dirty, Owner: 3})
	nodes[3].l2[addr] = cache.Modified

	fx := coherence.NewEffectArena()
	fmt.Println("Three-hop read: node 1 reads a line homed at node 2, dirty at node 3")
	msgs := show("requester (node 1): PIRead", fx,
		coherence.Handle(nodes[1], fx, &network.Message{Src: 1, Dst: 1,
			Type: uint8(coherence.MsgPIRead), Addr: addr}))
	for len(msgs) > 0 {
		m := msgs[0]
		msgs = msgs[1:]
		who := fmt.Sprintf("node %d: %v", m.Dst, coherence.MsgType(m.Type))
		msgs = append(msgs, show(who, fx, coherence.Handle(nodes[m.Dst], fx, m))...)
	}
	final := nodes[2].dir.Load(addr)
	fmt.Printf("\nfinal directory state at home: %v, sharers %b\n", final.State, final.Sharers)
	fmt.Printf("old owner's cache state: %v (downgraded)\n", nodes[3].l2[addr])
}
