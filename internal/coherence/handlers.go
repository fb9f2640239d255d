package coherence

import (
	"smtpsim/internal/addrmap"
	"smtpsim/internal/cache"
	"smtpsim/internal/directory"
	"smtpsim/internal/isa"
	"smtpsim/internal/network"
)

// req returns the node that ultimately wants the line: the local node for
// processor-interface messages, the carried requester for network messages.
func (c *Ctx) req() addrmap.NodeID {
	if MsgType(c.Msg.Type).IsLocalPI() {
		return c.Env.NodeID()
	}
	return c.Msg.Requester
}

// wbSource returns the node whose writeback is being processed.
func (c *Ctx) wbSource() addrmap.NodeID {
	if MsgType(c.Msg.Type).IsLocalPI() {
		return c.Env.NodeID()
	}
	return c.Msg.Src
}

// localEffect converts a reply type into the direct local effect used when
// the destination is this node itself (the MC's data-reply path to the L2,
// Figure 1, rather than a network loopback plus a second handler).
func localEffect(c *Ctx, t MsgType, line uint64, acks int, needsMem bool) uint32 {
	switch t {
	case MsgPUT:
		return c.refillEffect(line, cache.Shared, 0, false, needsMem)
	case MsgPUTX:
		return c.refillEffect(line, cache.Exclusive, acks, false, needsMem)
	case MsgUPGACK:
		return c.refillEffect(line, cache.Exclusive, acks, true, false)
	case MsgNAK:
		return c.lineEffect(EffNak, line)
	case MsgIACK:
		return c.lineEffect(EffIAck, line)
	case MsgWBACK:
		return c.lineEffect(EffWBAck, line)
	}
	panic("coherence: no local form for message " + t.String())
}

// emitMsg builds the effect for sending message type t to dst. Self-directed
// replies collapse into their local effect.
func emitMsg(t MsgType, dst addrmap.NodeID, c *Ctx, acks int, needsMem bool) uint32 {
	if dst == c.Env.NodeID() && t.VC() == network.VCReply &&
		t != MsgSHWB && t != MsgXFER && t != MsgIVNAK {
		return localEffect(c, t, c.Line(), acks, needsMem)
	}
	return c.sendEffect(network.Message{
		Src:       c.Env.NodeID(),
		Dst:       dst,
		Requester: c.req(),
		VC:        t.VC(),
		Type:      uint8(t),
		Addr:      c.Line(),
		Aux:       uint64(acks),
		DataBytes: t.DataBytes(),
	}, needsMem)
}

// sendTo wraps emitMsg as a builder effect closure.
func sendTo(t MsgType, dstFn func(*Ctx) addrmap.NodeID, acksFn func(*Ctx) int, needsMem bool) effFn {
	return func(c *Ctx) uint32 {
		acks := 0
		if acksFn != nil {
			acks = acksFn(c)
		}
		return emitMsg(t, dstFn(c), c, acks, needsMem)
	}
}

func toHome(c *Ctx) addrmap.NodeID    { return c.Env.HomeOf(c.Msg.Addr) }
func toReq(c *Ctx) addrmap.NodeID     { return c.req() }
func toSrc(c *Ctx) addrmap.NodeID     { return c.Msg.Src }
func toOwner(c *Ctx) addrmap.NodeID   { return c.E.Owner }
func toPending(c *Ctx) addrmap.NodeID { return c.E.Pending }
func toCur(c *Ctx) addrmap.NodeID     { return c.cur }
func toWBSrc(c *Ctx) addrmap.NodeID   { return c.wbSource() }

func loadDir(c *Ctx) { c.E = c.Env.DirLoad(c.Msg.Addr) }

// Branch conditions over the loaded directory entry.
//
// condBusy also treats a line as busy when this (home) node's own core has
// an outstanding miss on it and the request came over the network: the
// home's earlier transaction is still completing, so the remote request is
// NAKed and retried. Processor-interface messages are exempt — the
// outstanding miss is that very transaction.
func condBusy(c *Ctx) bool {
	if c.E.State.Busy() {
		return true
	}
	return !MsgType(c.Msg.Type).IsLocalPI() && c.Env.LocalMissOutstanding(c.Line())
}
func condDirty(c *Ctx) bool       { return c.E.State == directory.Dirty }
func condShared(c *Ctx) bool      { return c.E.State == directory.Shared }
func condOwnerIsReq(c *Ctx) bool  { return c.E.Owner == c.req() }
func condOwnerIsSelf(c *Ctx) bool { return c.E.Owner == c.Env.NodeID() }
func condRemote(c *Ctx) bool      { return c.Env.HomeOf(c.Msg.Addr) != c.Env.NodeID() }
func condLoopDone(c *Ctx) bool    { return c.remaining == 0 }

// prepInvals computes the invalidation targets for a GETX/UPGRADE in the
// Shared state: every sharer except the requester; a local (home) copy is
// invalidated inline without a message or an ack.
func prepInvals(c *Ctx) {
	c.remaining = c.E.Sharers &^ (1 << uint(c.req()))
	self := uint64(1) << uint(c.Env.NodeID())
	if c.remaining&self != 0 {
		c.Env.CacheInvalidate(c.Line())
		c.remaining &^= self
	}
	c.acks = 0
	for s := c.remaining; s != 0; s &= s - 1 {
		c.acks++
	}
}

// nextInval pops the lowest-numbered remaining sharer (the count-trailing-
// zeros bit op of the paper's protocol sequences).
func nextInval(c *Ctx) {
	bit := c.remaining & (-c.remaining)
	n := addrmap.NodeID(0)
	for b := bit; b > 1; b >>= 1 {
		n++
	}
	c.cur = n
	c.remaining &^= bit
}

func acksOf(c *Ctx) int { return c.acks }
func zeroAcks(*Ctx) int { return 0 }

// Handler program construction. Base PCs are fixed per message type so
// branch predictors and the I-cache see stable protocol code addresses.

func progBase(t MsgType) uint64 { return addrmap.CodeBase + uint64(t)*1024 }

// homeGetTail appends the home-side GET service code to b. Entered with the
// directory entry loaded into rDir/c.E.
func homeGetTail(b *progBuilder) {
	b.br(rDir, condBusy, "nak").
		br(rDir, condDirty, "dirty").
		br(rDir, condShared, "shared").
		// Unowned: eager-exclusive reply; directory notes the new owner.
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Dirty, Owner: c.req()})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgPUTX, toReq, zeroAcks, true)).
		jmp("end").
		label("shared").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, c.E.WithSharer(c.req()))
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgPUT, toReq, nil, true)).
		jmp("end").
		label("dirty").
		br(rDir, condOwnerIsReq, "ownerself").
		br(rDir, condOwnerIsSelf, "homeowner").
		// Forward a sharing intervention to the dirty owner.
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{
				State: directory.BusyShared, Owner: c.E.Owner, Pending: c.req(),
			})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgISHARED, toOwner, nil, false)).
		jmp("end").
		label("homeowner").
		// The home's own L2 owns the line: downgrade and reply from cache.
		act(rT1, rDir, func(c *Ctx) {
			c.Env.CacheDowngrade(c.Line())
			c.Env.DirStore(c.Msg.Addr, directory.Entry{
				State:   directory.Shared,
				Sharers: (1 << uint(c.req())) | (1 << uint(c.Env.NodeID())),
			})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgPUT, toReq, nil, false)).
		jmp("end").
		label("ownerself").
		// Requester silently dropped its clean-exclusive copy; re-supply.
		send(sendTo(MsgPUTX, toReq, zeroAcks, true)).
		jmp("end").
		label("nak").
		send(sendTo(MsgNAK, toReq, nil, false)).
		label("end")
}

// homeGetxTail appends the home-side GETX service code.
func homeGetxTail(b *progBuilder) {
	b.br(rDir, condBusy, "nak").
		br(rDir, condDirty, "dirty").
		br(rDir, condShared, "shared").
		// Unowned.
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Dirty, Owner: c.req()})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgPUTX, toReq, zeroAcks, true)).
		jmp("end").
		label("shared").
		act(rT1, rDir, prepInvals).
		bit(rT2, rT1). // popcount for the ack total
		act(rT1, rT2, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Dirty, Owner: c.req()})
		}).
		st(rT1, dirAddr, nil).
		// Eager-exclusive reply: data now, acks collected at the requester.
		send(sendTo(MsgPUTX, toReq, acksOf, true)).
		label("invloop").
		br(rT3, condLoopDone, "end").
		emit(PInstr{Op: isa.OpBitOp, Dst: rT3, Src1: rT1, Act: nextInval}). // ctz
		send(sendTo(MsgINVAL, toCur, nil, false)).
		jmp("invloop").
		label("dirty").
		br(rDir, condOwnerIsReq, "ownerself").
		br(rDir, condOwnerIsSelf, "homeowner").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{
				State: directory.BusyExcl, Owner: c.E.Owner, Pending: c.req(),
			})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgIEXCL, toOwner, nil, false)).
		jmp("end").
		label("homeowner").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.CacheInvalidate(c.Line())
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Dirty, Owner: c.req()})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgPUTX, toReq, zeroAcks, false)).
		jmp("end").
		label("ownerself").
		send(sendTo(MsgPUTX, toReq, zeroAcks, true)).
		jmp("end").
		label("nak").
		send(sendTo(MsgNAK, toReq, nil, false)).
		label("end")
}

// homeUpgradeTail appends the home-side UPGRADE service code. An upgrade is
// granted only if the requester is still a sharer of a Shared line;
// otherwise the request raced with an invalidation and is NAKed (the
// requester retries as a GETX).
func homeUpgradeTail(b *progBuilder) {
	b.br(rDir, condBusy, "nak").
		br(rDir, func(c *Ctx) bool {
			return !(c.E.State == directory.Shared && c.E.HasSharer(c.req()))
		}, "nak").
		act(rT1, rDir, prepInvals).
		bit(rT2, rT1).
		act(rT1, rT2, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Dirty, Owner: c.req()})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgUPGACK, toReq, acksOf, false)).
		label("invloop").
		br(rT3, condLoopDone, "end").
		emit(PInstr{Op: isa.OpBitOp, Dst: rT3, Src1: rT1, Act: nextInval}).
		send(sendTo(MsgINVAL, toCur, nil, false)).
		jmp("invloop").
		label("nak").
		send(sendTo(MsgNAK, toReq, nil, false)).
		label("end")
}

// homeWBTail appends the home-side writeback service code, including the
// two writeback-race resolutions.
func homeWBTail(b *progBuilder) {
	b.br(rDir, func(c *Ctx) bool {
		return c.E.State == directory.Dirty && c.E.Owner == c.wbSource()
	}, "normal").
		br(rDir, func(c *Ctx) bool {
			return c.E.State.Busy() && c.E.Owner == c.wbSource()
		}, "race").
		// Stale writeback (transaction already resolved another way): ack only.
		send(sendTo(MsgWBACK, toWBSrc, nil, false)).
		jmp("end").
		label("normal").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Unowned})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgWBACK, toWBSrc, nil, false)).
		jmp("end").
		label("race").
		// The owner wrote back while an intervention was in flight: the home
		// completes the pending request with the writeback data.
		br(rDir, func(c *Ctx) bool { return c.E.State == directory.BusyShared }, "raceShared").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Dirty, Owner: c.E.Pending})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgPUTX, toPending, zeroAcks, false)).
		send(sendTo(MsgWBACK, toWBSrc, nil, false)).
		jmp("end").
		label("raceShared").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{
				State: directory.Shared, Sharers: 1 << uint(c.E.Pending),
			})
		}).
		st(rT1, dirAddr, nil).
		send(sendTo(MsgPUT, toPending, nil, false)).
		send(sendTo(MsgWBACK, toWBSrc, nil, false)).
		jmp("end").
		label("end")
}

func buildPIRead() *Program {
	b := newProg("pi_read", progBase(MsgPIRead))
	b.alu(rT1, rHdr, rAddr).
		br(rT1, condRemote, "remote")
	b.ld(rDir, dirAddr, loadDir)
	homeGetTail(b)
	b.jmp("out").
		label("remote").
		send(sendTo(MsgGET, toHome, nil, false)).
		label("out")
	return b.done()
}

func buildPIWrite() *Program {
	b := newProg("pi_write", progBase(MsgPIWrite))
	b.alu(rT1, rHdr, rAddr).
		br(rT1, condRemote, "remote")
	b.ld(rDir, dirAddr, loadDir)
	homeGetxTail(b)
	b.jmp("out").
		label("remote").
		send(sendTo(MsgGETX, toHome, nil, false)).
		label("out")
	return b.done()
}

func buildPIUpgrade() *Program {
	b := newProg("pi_upgrade", progBase(MsgPIUpgrade))
	b.alu(rT1, rHdr, rAddr).
		br(rT1, condRemote, "remote")
	b.ld(rDir, dirAddr, loadDir)
	homeUpgradeTail(b)
	b.jmp("out").
		label("remote").
		send(sendTo(MsgUPGRADE, toHome, nil, false)).
		label("out")
	return b.done()
}

func buildPIWriteback() *Program {
	b := newProg("pi_writeback", progBase(MsgPIWriteback))
	b.alu(rT1, rHdr, rAddr).
		br(rT1, condRemote, "remote")
	b.ld(rDir, dirAddr, loadDir)
	homeWBTail(b)
	b.jmp("out").
		label("remote").
		send(sendTo(MsgWB, toHome, nil, false)).
		label("out")
	return b.done()
}

func buildGET() *Program {
	b := newProg("h_get", progBase(MsgGET))
	b.alu(rT1, rHdr, rAddr).
		ld(rDir, dirAddr, loadDir)
	homeGetTail(b)
	return b.done()
}

func buildGETX() *Program {
	b := newProg("h_getx", progBase(MsgGETX))
	b.alu(rT1, rHdr, rAddr).
		ld(rDir, dirAddr, loadDir)
	homeGetxTail(b)
	return b.done()
}

func buildUPGRADE() *Program {
	b := newProg("h_upgrade", progBase(MsgUPGRADE))
	b.alu(rT1, rHdr, rAddr).
		ld(rDir, dirAddr, loadDir)
	homeUpgradeTail(b)
	return b.done()
}

func buildWB() *Program {
	b := newProg("h_wb", progBase(MsgWB))
	b.alu(rT1, rHdr, rAddr).
		ld(rDir, dirAddr, loadDir)
	homeWBTail(b)
	return b.done()
}

func buildINVAL() *Program {
	b := newProg("h_inval", progBase(MsgINVAL))
	// Invalidate the local hierarchy (silently-dropped lines still ack) and
	// acknowledge to the requester, who collects acks.
	b.act(rT1, rHdr, func(c *Ctx) { c.Env.CacheInvalidate(c.Line()) }).
		send(sendTo(MsgIACK, toReq, nil, false))
	return b.done()
}

func buildISHARED() *Program {
	b := newProg("h_ishared", progBase(MsgISHARED))
	b.act(rT1, rHdr, func(c *Ctx) {
		c.wasDirty = c.Env.CacheProbe(c.Line()) != cache.Invalid
	}).
		br(rT1, func(c *Ctx) bool { return !c.wasDirty }, "gone").
		act(rT2, rT1, func(c *Ctx) { c.Env.CacheDowngrade(c.Line()) }).
		send(sendTo(MsgPUT, toReq, nil, false)).
		send(sendTo(MsgSHWB, toSrc, nil, false)).
		jmp("end").
		label("gone").
		// Writeback race: the line left this cache before the intervention
		// arrived; tell the home to complete from memory/writeback data.
		send(sendTo(MsgIVNAK, toSrc, nil, false)).
		label("end")
	return b.done()
}

func buildIEXCL() *Program {
	b := newProg("h_iexcl", progBase(MsgIEXCL))
	b.act(rT1, rHdr, func(c *Ctx) {
		c.wasDirty = c.Env.CacheProbe(c.Line()) != cache.Invalid
	}).
		br(rT1, func(c *Ctx) bool { return !c.wasDirty }, "gone").
		act(rT2, rT1, func(c *Ctx) { c.Env.CacheInvalidate(c.Line()) }).
		send(sendTo(MsgPUTX, toReq, zeroAcks, false)).
		send(sendTo(MsgXFER, toSrc, nil, false)).
		jmp("end").
		label("gone").
		send(sendTo(MsgIVNAK, toSrc, nil, false)).
		label("end")
	return b.done()
}

func buildSHWB() *Program {
	b := newProg("h_shwb", progBase(MsgSHWB))
	b.ld(rDir, dirAddr, loadDir).
		br(rDir, func(c *Ctx) bool {
			return c.E.State != directory.BusyShared || c.E.Owner != c.Msg.Src
		}, "drop").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{
				State:   directory.Shared,
				Sharers: (1 << uint(c.E.Pending)) | (1 << uint(c.E.Owner)),
			})
		}).
		st(rT1, dirAddr, nil).
		label("drop")
	return b.done()
}

func buildXFER() *Program {
	b := newProg("h_xfer", progBase(MsgXFER))
	b.ld(rDir, dirAddr, loadDir).
		br(rDir, func(c *Ctx) bool {
			return c.E.State != directory.BusyExcl || c.E.Owner != c.Msg.Src
		}, "drop").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Dirty, Owner: c.E.Pending})
		}).
		st(rT1, dirAddr, nil).
		label("drop")
	return b.done()
}

func buildIVNAK() *Program {
	b := newProg("h_ivnak", progBase(MsgIVNAK))
	// Only the owner the home forwarded the intervention to may complete
	// the busy transaction: a stale IVNAK from an earlier transaction on
	// the same line must be dropped (per-channel FIFO guarantees the
	// current owner's messages cannot be overtaken by its older ones).
	b.ld(rDir, dirAddr, loadDir).
		br(rDir, func(c *Ctx) bool {
			return !c.E.State.Busy() || c.E.Owner != c.Msg.Src
		}, "drop").
		br(rDir, func(c *Ctx) bool { return c.E.State == directory.BusyShared }, "shared").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{State: directory.Dirty, Owner: c.E.Pending})
		}).
		st(rT1, dirAddr, nil).
		send(func(c *Ctx) uint32 { return emitMsg(MsgPUTX, c.E.Pending, c, 0, true) }).
		jmp("drop").
		label("shared").
		act(rT1, rDir, func(c *Ctx) {
			c.Env.DirStore(c.Msg.Addr, directory.Entry{
				State: directory.Shared, Sharers: 1 << uint(c.E.Pending),
			})
		}).
		st(rT1, dirAddr, nil).
		send(func(c *Ctx) uint32 { return emitMsg(MsgPUT, c.E.Pending, c, 0, true) }).
		label("drop")
	return b.done()
}

func replyProg(name string, t MsgType, eff effFn) *Program {
	b := newProg(name, progBase(t))
	b.alu(rT1, rHdr, rAddr).
		emit(PInstr{Op: isa.OpIntALU, Dst: rT2, Src1: rT1, Eff: eff})
	return b.done()
}

func buildPUT() *Program {
	return replyProg("h_put", MsgPUT, func(c *Ctx) uint32 {
		return c.refillEffect(c.Line(), cache.Shared, 0, false, false)
	})
}

func buildPUTX() *Program {
	return replyProg("h_putx", MsgPUTX, func(c *Ctx) uint32 {
		return c.refillEffect(c.Line(), cache.Exclusive, int(c.Msg.Aux), false, false)
	})
}

func buildUPGACK() *Program {
	return replyProg("h_upgack", MsgUPGACK, func(c *Ctx) uint32 {
		return c.refillEffect(c.Line(), cache.Exclusive, int(c.Msg.Aux), true, false)
	})
}

func buildNAK() *Program {
	return replyProg("h_nak", MsgNAK, func(c *Ctx) uint32 {
		return c.lineEffect(EffNak, c.Line())
	})
}

func buildIACK() *Program {
	return replyProg("h_iack", MsgIACK, func(c *Ctx) uint32 {
		return c.lineEffect(EffIAck, c.Line())
	})
}

func buildWBACK() *Program {
	return replyProg("h_wback", MsgWBACK, func(c *Ctx) uint32 {
		return c.lineEffect(EffWBAck, c.Line())
	})
}

var handlerTable [NumMsgTypes]*Program

func init() {
	handlerTable[MsgPIRead] = buildPIRead()
	handlerTable[MsgPIWrite] = buildPIWrite()
	handlerTable[MsgPIUpgrade] = buildPIUpgrade()
	handlerTable[MsgPIWriteback] = buildPIWriteback()
	handlerTable[MsgGET] = buildGET()
	handlerTable[MsgGETX] = buildGETX()
	handlerTable[MsgUPGRADE] = buildUPGRADE()
	handlerTable[MsgWB] = buildWB()
	handlerTable[MsgINVAL] = buildINVAL()
	handlerTable[MsgISHARED] = buildISHARED()
	handlerTable[MsgIEXCL] = buildIEXCL()
	handlerTable[MsgSHWB] = buildSHWB()
	handlerTable[MsgXFER] = buildXFER()
	handlerTable[MsgIVNAK] = buildIVNAK()
	handlerTable[MsgPUT] = buildPUT()
	handlerTable[MsgPUTX] = buildPUTX()
	handlerTable[MsgUPGACK] = buildUPGACK()
	handlerTable[MsgNAK] = buildNAK()
	handlerTable[MsgIACK] = buildIACK()
	handlerTable[MsgWBACK] = buildWBACK()
}

// ProgramFor returns the handler program dispatched for a message type.
func ProgramFor(t MsgType) *Program {
	p := handlerTable[t]
	if p == nil {
		panic("coherence: no handler for " + t.String())
	}
	return p
}

// Handle runs the handler for msg against env, returning the executed-path
// instruction trace. The trace's effects are issued into fx.
func Handle(env Env, fx *EffectArena, msg *network.Message) []isa.Instr {
	c := &Ctx{Env: env, Msg: msg, Effects: fx}
	return ProgramFor(MsgType(msg.Type)).Execute(c)
}
