package node

import (
	"sort"

	"smtpsim/internal/network"
	"smtpsim/internal/snapshot"
)

// SaveState serializes the node's complete dynamic state: its share of
// physical memory (holding the directory entries), the directory access
// counters, parked interventions (sorted by line, never by map layout),
// the memory controller, the protocol backend (the PP engine on Base/Int*
// nodes; on SMTp nodes the protocol thread lives inside the pipeline), and
// the pipeline itself.
func (n *Node) SaveState(e *snapshot.Encoder) {
	e.Mark("node")
	n.Mem.SaveState(e)
	e.U64(n.Dir.Loads)
	e.U64(n.Dir.Stores)

	lines := make([]uint64, 0, len(n.parked))
	for l := range n.parked {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	e.Int(len(lines))
	for _, l := range lines {
		msgs := n.parked[l]
		e.U64(l)
		e.Int(len(msgs))
		for i := range msgs {
			network.SaveMessage(e, &msgs[i])
		}
	}
	e.U64(n.DeferredInterventions)

	n.MC.SaveState(e)
	e.Bool(n.PP != nil)
	if n.PP != nil {
		n.PP.SaveState(e)
	}
	n.Pipe.SaveState(e, n.MC.SaveInstr)
}

// LoadState restores state saved by SaveState into a node built from the
// same configuration.
func (n *Node) LoadState(d *snapshot.Decoder) {
	d.Expect("node")
	n.Mem.LoadState(d)
	n.Dir.Loads = d.U64()
	n.Dir.Stores = d.U64()

	n.parked = make(map[uint64][]network.Message)
	for i, nl := 0, d.Int(); i < nl && d.Err() == nil; i++ {
		line := d.U64()
		msgs := make([]network.Message, d.Count(network.MessageBytes))
		for j := range msgs {
			network.DecodeMessage(d, &msgs[j])
		}
		n.parked[line] = msgs
	}
	n.DeferredInterventions = d.U64()

	n.MC.LoadState(d)
	if hasPP := d.Bool(); d.Err() == nil && hasPP != (n.PP != nil) {
		d.Fail("snapshot has pp=%v but node has pp=%v (model mismatch)", hasPP, n.PP != nil)
		return
	}
	if n.PP != nil {
		n.PP.LoadState(d)
	}
	n.Pipe.LoadState(d, n.MC.LoadInstr)
}
