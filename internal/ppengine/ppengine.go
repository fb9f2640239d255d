package ppengine

import (
	"smtpsim/internal/addrmap"
	"smtpsim/internal/isa"
	"smtpsim/internal/sim"
	"smtpsim/internal/stats"
)

// Config parameterizes the engine.
type Config struct {
	// DirCacheBytes is the directory data cache size; 0 means perfect
	// (always hits).
	DirCacheBytes int
	// ICacheBytes is the protocol instruction cache size (32 KB DM in all
	// paper configurations).
	ICacheBytes int
	// LineBytes is the line size of both caches.
	LineBytes int
	// MissPenalty is the stall, in PP cycles, for a directory-cache or
	// instruction-cache miss (an SDRAM access at the MC's clock).
	MissPenalty int
}

// DefaultConfig returns the paper's protocol-processor configuration for a
// given directory-cache size (0 = perfect) and miss penalty.
func DefaultConfig(dirCacheBytes, missPenalty int) Config {
	return Config{
		DirCacheBytes: dirCacheBytes,
		ICacheBytes:   32 * 1024,
		LineBytes:     64,
		MissPenalty:   missPenalty,
	}
}

// dmCache is a minimal direct-mapped tag array.
type dmCache struct {
	tags  []uint64
	valid []bool
	line  uint64

	hits, misses uint64
}

func newDM(bytes, line int) *dmCache {
	n := bytes / line
	return &dmCache{tags: make([]uint64, n), valid: make([]bool, n), line: uint64(line)}
}

// access returns true on hit, filling on miss.
func (c *dmCache) access(addr uint64) bool {
	la := addr &^ (c.line - 1)
	idx := (addr / c.line) % uint64(len(c.tags))
	if c.valid[idx] && c.tags[idx] == la {
		c.hits++
		return true
	}
	c.misses++
	c.tags[idx] = la
	c.valid[idx] = true
	return false
}

// Engine is one node's embedded protocol processor. It is the memory
// controller's protocol execution backend (memctrl.Backend) and runs on
// the controller's clock: the controller ticks it before each dispatch.
type Engine struct {
	cfg Config

	dir *dmCache // nil = perfect
	ic  *dmCache

	// trace is the handler being executed, busy until pc reaches its end;
	// the engine keeps it after that as the buffer for the next handler.
	trace []isa.Instr
	pc    int
	stall int

	fire func(effect uint32)

	// Statistics.
	BusyCycles    uint64
	Retired       uint64
	Handlers      uint64
	TakenBranches uint64
}

// New builds an engine. fire is invoked with each instruction's effect
// handle (sends, refills) as the instruction completes.
func New(cfg Config, fire func(uint32)) *Engine {
	e := &Engine{cfg: cfg, fire: fire}
	if cfg.DirCacheBytes > 0 {
		e.dir = newDM(cfg.DirCacheBytes, cfg.LineBytes)
	}
	if cfg.ICacheBytes > 0 {
		e.ic = newDM(cfg.ICacheBytes, cfg.LineBytes)
	}
	return e
}

// Busy reports whether a handler is executing: true until its last
// instruction completes.
func (e *Engine) Busy() bool { return e.pc < len(e.trace) }

// CanAccept implements memctrl.Backend: an idle engine takes the next
// handler.
func (e *Engine) CanAccept() bool { return !e.Busy() }

// TraceBuf implements memctrl.Backend: the engine's last trace, emptied,
// as the buffer the next handler is written into. Only an idle engine's
// buffer is free.
func (e *Engine) TraceBuf() []isa.Instr { return e.trace[:0] }

// Start implements memctrl.Backend: it begins executing a handler trace.
// Panics if the engine is already busy.
func (e *Engine) Start(trace []isa.Instr) {
	if e.Busy() {
		panic("ppengine: Start while busy")
	}
	if len(trace) == 0 {
		panic("ppengine: empty trace")
	}
	e.trace = trace
	e.pc = 0
	e.stall = 0
	e.Handlers++
}

// DirMisses returns directory data cache misses (0 when perfect).
func (e *Engine) DirMisses() uint64 {
	if e.dir == nil {
		return 0
	}
	return e.dir.misses
}

// ICMisses returns protocol instruction cache misses.
func (e *Engine) ICMisses() uint64 {
	if e.ic == nil {
		return 0
	}
	return e.ic.misses
}

// memStall returns the stall an instruction's memory behaviour costs.
func (e *Engine) memStall(in *isa.Instr) int {
	total := 0
	if e.ic != nil && !e.ic.access(in.PC) {
		total += e.cfg.MissPenalty
	}
	if in.Op.IsMem() && !in.Op.IsUncached() && addrmap.IsDirectory(in.Addr) {
		if e.dir != nil && !e.dir.access(in.Addr) {
			total += e.cfg.MissPenalty
		}
	}
	return total
}

// Tick advances one PP cycle: up to two in-order instructions issue,
// subject to dual-issue pairing rules (one memory op per cycle, no
// intra-group dependence, a branch ends the group; a taken branch costs a
// refetch bubble).
func (e *Engine) Tick(now sim.Cycle) {
	if !e.Busy() {
		return
	}
	e.BusyCycles++
	if e.stall > 0 {
		e.stall--
		return
	}

	issued := 0
	var firstDst isa.Reg = isa.RegNone
	firstMem := false
	for issued < 2 && e.pc < len(e.trace) {
		in := &e.trace[e.pc]
		if issued == 1 {
			// Pairing rules for the second slot.
			if in.Op.IsMem() && firstMem {
				break
			}
			if firstDst != isa.RegNone && (in.Src1 == firstDst || in.Src2 == firstDst) {
				break
			}
		}
		if s := e.memStall(in); s > 0 {
			// Miss: stall, then the instruction issues after the refill
			// (the tag array was filled by the probe).
			e.stall = s
			return
		}
		// Instruction completes this cycle.
		e.retire(in)
		e.pc++
		issued++
		firstDst = in.Dst
		firstMem = firstMem || in.Op.IsMem()
		if in.Op == isa.OpBranch {
			if in.Taken {
				e.TakenBranches++
				e.stall = 1 // refetch bubble
			}
			break
		}
	}
}

func (e *Engine) retire(in *isa.Instr) {
	e.Retired++
	if in.Effect != 0 {
		e.fire(in.Effect)
	}
}

// RegisterMetrics publishes the engine's counters under the given scope:
// busy cycles, retired protocol instructions, handler count, taken
// branches, and the protocol instruction / directory data cache behaviour.
func (e *Engine) RegisterMetrics(s *stats.Scope) {
	s.CounterFunc("busy_cycles", func() uint64 { return e.BusyCycles })
	s.CounterFunc("retired", func() uint64 { return e.Retired })
	s.CounterFunc("handlers", func() uint64 { return e.Handlers })
	s.CounterFunc("taken_branches", func() uint64 { return e.TakenBranches })
	if e.ic != nil {
		ic := s.Scope("icache")
		ic.CounterFunc("hits", func() uint64 { return e.ic.hits })
		ic.CounterFunc("misses", func() uint64 { return e.ic.misses })
	}
	if e.dir != nil {
		dc := s.Scope("dircache")
		dc.CounterFunc("hits", func() uint64 { return e.dir.hits })
		dc.CounterFunc("misses", func() uint64 { return e.dir.misses })
	}
}
