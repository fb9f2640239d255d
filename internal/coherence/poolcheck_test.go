//go:build poolcheck

package coherence

import "testing"

// TestEffectArenaRejectsDeadHandles pins the poolcheck contract of the
// effect arena: an effect fires once, and firing (or reading) a handle that
// was already fired, or never issued, panics instead of firing stale data.
func TestEffectArenaRejectsDeadHandles(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	fx := NewEffectArena()
	tr := Handle(newMockEnv(0, 4), fx, pi(MsgPIRead, pageAddr(0), 0))
	var h uint32
	for i := range tr {
		if tr[i].Effect != 0 {
			h = tr[i].Effect
		}
	}
	if h == 0 || fx.Live() != 1 {
		t.Fatalf("handler issued handle %d, %d live effects; want one", h, fx.Live())
	}
	if e := fx.Take(h); e.Kind != EffRefill {
		t.Fatalf("took %+v, want the local refill", e)
	}
	mustPanic("firing a fired handle", func() { fx.Take(h) })
	mustPanic("reading a fired handle", func() { fx.Get(h) })
	mustPanic("firing handle 0", func() { fx.Take(0) })
	mustPanic("firing a never-issued handle", func() { fx.Take(h + 1) })
	if fx.Live() != 0 {
		t.Fatalf("%d effects live after the only one fired", fx.Live())
	}
}
