//go:build poolcheck

package coherence

import "fmt"

// checkLive panics unless h names an issued, not yet fired effect: a
// second firing, or a handle from another arena, fails at the first touch.
func (a *EffectArena) checkLive(h uint32) {
	if h == 0 || int(h) >= len(a.slots) || a.slots[h].Kind == effFree {
		panic(fmt.Sprintf("coherence: effect handle %d is not live", h))
	}
}
