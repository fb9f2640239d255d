//go:build poolcheck

package network

import (
	"testing"

	"smtpsim/internal/sim"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestPoolPoisonsReleasedMessages pins the poolcheck contract: a released
// message is visibly poisoned, use-after-release and double-release panic,
// and Get hands back a clean, live message again.
func TestPoolPoisonsReleasedMessages(t *testing.T) {
	if !PoolCheckEnabled {
		t.Fatal("poolcheck build tag not active")
	}
	p := NewPool()
	m := p.Get()
	m.Type, m.Addr = 3, 0x1000
	p.Put(m)

	if m.Addr != poisonPattern || m.Aux != poisonPattern {
		t.Fatalf("released message not poisoned: %+v", m)
	}
	mustPanic(t, "AssertLive on a released message", func() { m.AssertLive("test") })
	mustPanic(t, "double Put", func() { p.Put(m) })

	m2 := p.Get()
	if m2 != m {
		t.Fatal("pool did not recycle the released message")
	}
	if m2.Addr != 0 || m2.Type != 0 {
		t.Fatalf("recycled message not zeroed: %+v", m2)
	}
	m2.AssertLive("test") // must not panic
}

// TestNetworkRejectsReleasedMessage: Send asserts liveness at its entry, so
// a sink that releases a message and then forwards it fails immediately
// instead of corrupting a later owner.
func TestNetworkRejectsReleasedMessage(t *testing.T) {
	var n *Network
	eng := sim.NewEngine(func(d sim.Desc) { n.Fire(d) })
	n = New(Config{Nodes: 4, HopCycles: 1}, eng, func(*Message) {})
	m := n.MsgPool().Get()
	m.Src, m.Dst = 0, 1
	n.MsgPool().Put(m)
	mustPanic(t, "Send of a released message", func() { n.Send(m) })
}
