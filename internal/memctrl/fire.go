package memctrl

import (
	"fmt"

	"smtpsim/internal/cache"
	"smtpsim/internal/network"
	"smtpsim/internal/sim"
)

// The controller's scheduled events are plain descriptors: a deferred
// local enqueue carries its message, a deferred effect action its message
// or its refill's line, state, ack count and flags. The engine hands each
// one back to Fire when it comes due, and a snapshot stores it verbatim.

// Fire kinds, packed into the low byte of a KMCFire descriptor's first
// word alongside the fireDesc* flag bits.
const (
	fireSend = uint8(iota)
	fireRefill
)

// Fire runs one of the controller's scheduled events.
func (mc *MC) Fire(d sim.Desc) {
	switch d.Kind {
	case KMCDeferred:
		m := mc.pool.Get()
		network.UnpackMessage([4]uint64(d.Args[:4]), m)
		mc.localDeferred(m)
	case KMCFire:
		mc.fire(d)
	default:
		panic(fmt.Sprintf("memctrl: unknown event kind %d", d.Kind))
	}
}

// fire performs a deferred effect action: a send whose data waited on the
// overlapped SDRAM read, or a refill. On a non-integrated controller a
// refill first crosses the processor bus: the same descriptor, flagged
// crossed, is scheduled again as the second leg.
func (mc *MC) fire(d sim.Desc) {
	switch uint8(d.Args[0]) {
	case fireSend:
		m := mc.pool.Get()
		network.UnpackMessage([4]uint64(d.Args[1:5]), m)
		mc.net.Send(m)
	case fireRefill:
		if extra := mc.cfg.PIExtraCycles; extra > 0 && d.Args[0]&fireDescCrossed == 0 {
			d.Args[0] |= fireDescCrossed
			mc.eng.After(extra, d)
			return
		}
		mc.node.DeliverRefill(d.Args[1], cache.State(d.Args[2]), int(int64(d.Args[3])), d.Args[0]&fireDescUpgrade != 0)
	default:
		panic(fmt.Sprintf("memctrl: unknown fire kind %d", uint8(d.Args[0])))
	}
}

// CheckEvent validates a snapshotted controller descriptor before restore
// pushes it, so a corrupt one fails the restore instead of panicking when
// it fires.
func CheckEvent(d sim.Desc) error {
	switch d.Kind {
	case KMCDeferred:
		return nil
	case KMCFire:
		if k := uint8(d.Args[0]); k != fireSend && k != fireRefill {
			return fmt.Errorf("memctrl: unknown fire kind %d in descriptor", k)
		}
		return nil
	}
	return fmt.Errorf("memctrl: unknown event kind %d", d.Kind)
}
