//go:build !poolcheck

package coherence

// checkLive is a no-op without the poolcheck build tag.
func (a *EffectArena) checkLive(uint32) {}
