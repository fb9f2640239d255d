// Package network is a hot-path fixture: message literals and address-keyed
// map fields are hotalloc findings here.
package network

// Message mirrors the simulator's protocol message.
type Message struct {
	Addr uint64
}

// Router tracks per-link state.
type Router struct {
	busy map[uint64]int // want hotalloc
	name map[string]int // non-address keys are fine
}

// Fresh allocates a message on the heap instead of building a value.
func Fresh() *Message {
	return &Message{Addr: 1} // want hotalloc
}

// Cold is an annotated slow path.
func Cold() *Message {
	return &Message{} //simlint:allow hotalloc -- fixture: documented cold path
}
