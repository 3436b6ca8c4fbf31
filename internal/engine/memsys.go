package engine

import (
	"fmt"

	"lsnuma/internal/cache"
	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
	"lsnuma/internal/stats"
)

// execute services one scheduled memory operation, advancing the issuing
// processor's clock by the modeled latency and updating all simulator
// state (caches, directory, network occupancy, statistics, classifiers).
func (m *Machine) execute(o *op) {
	// The common case — an access confined to one block — skips the split
	// entirely; straddling accesses reuse the machine's scratch buffer so
	// neither path allocates.
	if o.size > 0 && m.layout.SameBlock(o.addr, o.addr+memory.Addr(o.size)-1) {
		if o.rmw {
			m.accessBlock(o.proc, o.addr, o.size, memory.Load, false, true)
			m.accessBlock(o.proc, o.addr, o.size, memory.Store, true, false)
			return
		}
		m.accessBlock(o.proc, o.addr, o.size, o.kind, false, o.excl)
		return
	}
	m.split = m.layout.AppendSplitByBlock(m.split[:0], o.addr, o.size)
	parts := m.split
	if o.rmw {
		// The load half of an atomic is a natural exclusive-read site
		// under the software prefetch-exclusive model.
		for _, part := range parts {
			m.accessBlock(o.proc, part.Addr, part.Size, memory.Load, false, true)
		}
		for _, part := range parts {
			m.accessBlock(o.proc, part.Addr, part.Size, memory.Store, true, false)
		}
		return
	}
	for _, part := range parts {
		m.accessBlock(o.proc, part.Addr, part.Size, o.kind, false, o.excl)
	}
}

// accessBlock performs one access confined to a single cache block.
// rmwFence marks the store half of an atomic read-modify-write, which
// must drain the relaxed-mode write buffer before executing; exclAnnot
// marks an exclusive-read annotation, honoured only when the machine is
// configured with SoftwareExclusive.
func (m *Machine) accessBlock(p *Proc, addr memory.Addr, size uint32, kind memory.Kind, rmwFence, exclAnnot bool) {
	block := m.layout.Block(addr)
	nd := m.nodes[p.id]
	cpu := &m.st.CPUs[p.id]
	if m.checker != nil {
		// Queue the block for the post-operation invariant check; fill
		// adds replacement victims the same way.
		m.touched = append(m.touched, block)
	}
	if kind == memory.Load {
		cpu.Loads++
	} else {
		cpu.Stores++
	}

	res := nd.caches.Access(block, kind)

	// Under the relaxed-writes ablation an atomic RMW acts as a fence:
	// its store half must drain the write buffer first.
	if rmwFence && p.writeDrain > p.clock {
		stallF := p.writeDrain - p.clock
		cpu.WriteStall += stallF
		p.clock = p.writeDrain
	}

	// Local latency accounting: the L1 access is busy time; anything
	// beyond the L1 stalls the (sequentially consistent, blocking)
	// processor and is attributed to read or write stall by access kind.
	l1 := uint64(m.cfg.L1.AccessTime)
	local := uint64(res.Latency)
	cpu.Busy += l1
	stall := local - l1
	issued := p.clock + local

	switch {
	case res.HitL1:
		cpu.L1Hits++
	case res.HitL2:
		cpu.L2Hits++
	}

	if res.LSWrite {
		// A store satisfied by silently promoting an LStemp copy: the
		// ownership acquisition the optimization eliminated. The home
		// entry remains in the Load-Store (Excl) state — per Fig. 1 the
		// "Write (by LR)" transition to Dirty needs no message; the home
		// discovers the dirtiness when the next request is forwarded.
		m.st.EliminatedOwnership++
		m.seq.GlobalWrite(block, p.id, p.src, true)
	}

	var done uint64 = issued
	if res.Action != cache.NoGlobal {
		cpu.GlobalOps++
		if m.fs != nil && res.Action != cache.GlobalUpgrade {
			m.fs.OnMiss(p.id, block)
		}
		switch res.Action {
		case cache.GlobalRead:
			done = m.readMiss(p, block, issued, exclAnnot && m.cfg.SoftwareExclusive)
		case cache.GlobalUpgrade:
			done = m.upgrade(p, block, issued)
		case cache.GlobalWriteMiss:
			done = m.writeMiss(p, block, issued)
		}
		stall += done - issued
	}

	if kind == memory.Load {
		cpu.ReadStall += stall
		p.clock = done
	} else if m.cfg.RelaxedWrites && !rmwFence && res.Action != cache.NoGlobal {
		// The store retires into the write buffer: the processor keeps
		// only the local (cache-probe) latency; the global transaction
		// completes in the background at `done`.
		cpu.WriteStall += local - l1
		p.clock = issued
		if done > p.writeDrain {
			p.writeDrain = done
		}
	} else {
		cpu.WriteStall += stall
		p.clock = done
	}

	if m.fs != nil {
		m.fs.OnAccess(p.id, addr, size, kind)
	}
}

// ctrl charges one memory-controller service of `work` cycles at node n,
// starting no earlier than `at`, and returns the completion time.
// Controller occupancy models contention at the home.
func (m *Machine) ctrl(n memory.NodeID, at uint64, work int) uint64 {
	nd := m.nodes[n]
	start := at
	if nd.ctrlBusy > start {
		start = nd.ctrlBusy
	}
	end := start + uint64(work)
	nd.ctrlBusy = end
	return end
}

// classifyReadMiss returns the paper's four-way read-miss class for the
// current home state of the block.
func (m *Machine) classifyReadMiss(e *directory.Entry, block memory.Addr) stats.ReadMissClass {
	switch e.State {
	case directory.Dirty:
		return stats.MissDirty
	case directory.Excl:
		if m.nodes[e.Owner].caches.State(block) == cache.LStemp {
			return stats.MissCleanExcl
		}
		return stats.MissDirtyExcl
	default:
		return stats.MissClean
	}
}

// readMiss services a global read request for block by processor p.id
// issued at time `at`, returns the completion time, and installs the
// block in p's caches.
func (m *Machine) readMiss(p *Proc, block memory.Addr, at uint64, wantExcl bool) uint64 {
	R := p.id
	H := m.layout.Home(block)
	e := m.dir.Entry(block)
	proto := m.cfg.Protocol

	m.st.ReadMisses[m.classifyReadMiss(e, block)]++
	m.seq.GlobalRead(block, R)

	t := m.request(p, block, H, stats.MsgReadReq, at)

	var fill cache.State
	switch e.State {
	case directory.Uncached, directory.Shared:
		// Data comes from home memory.
		t = m.ctrl(H, t, memTime)
		grantExcl := wantExcl ||
			(e.State == directory.Uncached && proto.GrantExclusiveOnRead(e, R))
		if grantExcl {
			if e.State == directory.Shared {
				// A software exclusive read of a read-shared block
				// invalidates the other copies (prefetch-exclusive
				// semantics).
				t = m.invalidateSharers(e, block, R, H, t)
			}
			m.st.ExclusiveGrants++
			e.State = directory.Excl
			e.Owner = R
			m.clearSharers(e)
			fill = cache.LStemp
		} else {
			e.State = directory.Shared
			m.addSharer(e, R)
			e.Owner = memory.NoNode
			fill = cache.Shared
		}
		t = m.send(H, R, stats.MsgReadReply, t)

	case directory.Dirty, directory.Excl:
		O := e.Owner
		if O == R {
			panic(fmt.Sprintf("engine: read miss by owner %d of block %#x", R, block))
		}
		ownerState := m.nodes[O].caches.State(block)
		t = m.send(H, O, stats.MsgReadFwd, t)
		t = m.ctrl(O, t, ctrlTime+m.cfg.L2.AccessTime)

		if ownerState == cache.LStemp {
			// The exclusive grant was not a load-store access after all
			// (Section 3.1, case 2): de-tag, share the block. The owner
			// keeps a Shared copy; home is notified via NotLS and gets
			// an up-to-date copy (which it already has — the block is
			// clean — but the message still travels, carrying data per
			// the paper: "both the requesting node as well as the home
			// node receives an updated copy").
			proto.NoteFailedPrediction(e)
			m.st.FailedPredictions++
			m.nodes[O].caches.Downgrade(block)
			m.send(O, H, stats.MsgNotLS, t)
			m.send(O, H, stats.MsgUpdate, t)
			t = m.send(O, R, stats.MsgReadReply, t)
			e.State = directory.Shared
			m.clearSharers(e)
			m.addSharer(e, O)
			m.addSharer(e, R)
			e.Owner = memory.NoNode
			fill = cache.Shared
		} else {
			// Genuine dirty copy: DASH-style 4-hop read-on-dirty. The
			// owner writes back through the home, which replies to the
			// requester.
			t = m.send(O, H, stats.MsgSharingWB, t)
			t = m.ctrl(H, t, ctrlTime+memTime)
			if wantExcl || proto.GrantExclusiveOnRead(e, R) {
				// Migratory/LS handling: the read is combined with the
				// ownership acquisition — the previous owner is
				// invalidated and the requester receives an exclusive
				// copy.
				m.st.ExclusiveGrants++
				m.loseCopy(O, block, true)
				e.State = directory.Excl
				e.Owner = R
				fill = cache.LStemp
			} else {
				m.nodes[O].caches.Downgrade(block)
				e.State = directory.Shared
				m.clearSharers(e)
				m.addSharer(e, O)
				m.addSharer(e, R)
				e.Owner = memory.NoNode
				fill = cache.Shared
			}
			t = m.send(H, R, stats.MsgReadReply, t)
		}
	}

	proto.NoteRead(e, R)
	t = m.ctrl(R, t, ctrlTime)
	m.fill(p, block, fill, t)
	m.complete(t)
	return t
}

// upgrade services an ownership acquisition: p holds a Shared copy and
// wants to write. Invalidations go to all other sharers; the grant waits
// for their acknowledgements (sequential consistency).
func (m *Machine) upgrade(p *Proc, block memory.Addr, at uint64) uint64 {
	R := p.id
	H := m.layout.Home(block)
	e := m.dir.Entry(block)

	if e.State != directory.Shared || !e.Sharers.Has(R) {
		panic(fmt.Sprintf("engine: upgrade of block %#x by %d but home state %v sharers %v",
			block, R, e.State, e.Sharers))
	}

	m.st.GlobalInv++
	m.st.WritesToShared++
	if tagged := m.cfg.Protocol.NoteGlobalWrite(e, R, true); tagged {
		m.st.Taggings++
	}
	m.seq.GlobalWrite(block, R, p.src, false)

	t := m.request(p, block, H, stats.MsgOwnReq, at)
	t = m.invalidateSharers(e, block, R, H, t)

	e.State = directory.Dirty
	e.Owner = R
	m.clearSharers(e)

	t = m.send(H, R, stats.MsgOwnAck, t)
	t = m.ctrl(R, t, ctrlTime)
	m.nodes[R].caches.Upgrade(block)
	m.complete(t)
	return t
}

// writeMiss services a read-exclusive request: p holds no copy and wants
// to write.
func (m *Machine) writeMiss(p *Proc, block memory.Addr, at uint64) uint64 {
	R := p.id
	H := m.layout.Home(block)
	e := m.dir.Entry(block)
	proto := m.cfg.Protocol

	m.st.GlobalWriteMisses++
	if tagged := proto.NoteGlobalWrite(e, R, false); tagged {
		m.st.Taggings++
	}
	m.seq.GlobalWrite(block, R, p.src, false)

	t := m.request(p, block, H, stats.MsgWriteReq, at)

	switch e.State {
	case directory.Uncached:
		t = m.ctrl(H, t, memTime)
		t = m.send(H, R, stats.MsgWriteReply, t)

	case directory.Shared:
		m.st.WritesToShared++
		t = m.invalidateSharers(e, block, R, H, t)
		t = m.ctrl(H, t, memTime)
		t = m.send(H, R, stats.MsgWriteReply, t)

	case directory.Dirty, directory.Excl:
		O := e.Owner
		if O == R {
			panic(fmt.Sprintf("engine: write miss by owner %d of block %#x", R, block))
		}
		ownerState := m.nodes[O].caches.State(block)
		t = m.send(H, O, stats.MsgWriteFwd, t)
		t = m.ctrl(O, t, ctrlTime+m.cfg.L2.AccessTime)
		if ownerState == cache.LStemp {
			// Foreign write to an unexercised exclusive grant: failed
			// prediction (Section 3.1, case 2). The copy is clean, so
			// the home supplies the data after the owner's ack.
			proto.NoteFailedPrediction(e)
			m.st.FailedPredictions++
			m.loseCopy(O, block, true)
			t = m.send(O, H, stats.MsgInvalAck, t)
			m.st.Invalidations++
			t = m.ctrl(H, t, memTime)
			t = m.send(H, R, stats.MsgWriteReply, t)
		} else {
			// Dirty transfer through the home (4 hops).
			m.loseCopy(O, block, true)
			t = m.send(O, H, stats.MsgWriteback, t)
			t = m.ctrl(H, t, ctrlTime+memTime)
			t = m.send(H, R, stats.MsgWriteReply, t)
		}
	}

	e.State = directory.Dirty
	e.Owner = R
	m.clearSharers(e)

	t = m.ctrl(R, t, ctrlTime)
	m.fill(p, block, cache.Modified, t)
	m.complete(t)
	return t
}

// invalidateSharers sends individual invalidations to every sharer except
// keep, collects their acknowledgements, and returns the time the last ack
// reached the home. Copies are removed from the victims' caches and the
// false-sharing classifier is informed (invalidation losses).
func (m *Machine) invalidateSharers(e *directory.Entry, block memory.Addr, keep, H memory.NodeID, t uint64) uint64 {
	ackT := t
	e.Sharers.ForEach(func(s memory.NodeID) {
		if s == keep {
			return
		}
		m.st.Invalidations++
		ti := m.send(H, s, stats.MsgInval, t)
		ti = m.ctrl(s, ti, ctrlTime)
		if m.faults == nil || !m.faults.DropInvalidation(s, block, m.opCount, t) {
			m.loseCopy(s, block, true)
		}
		// When the injector drops the invalidation the victim keeps its
		// stale copy while the home forgets it — the lost-message bug the
		// online checker must catch. The ack still "arrives": the home
		// believes the invalidation succeeded.
		ta := m.send(s, H, stats.MsgInvalAck, ti)
		if ta > ackT {
			ackT = ta
		}
	})
	// Compact wire formats (limited-pointer overflow, coarse vector) would
	// invalidate a superset of the exact sharer set. The extra victims hold
	// no copy, so the round's timing and the simulated timeline are
	// unchanged; the cost is counted architecturally, like PR 4's
	// resilience counters, so Results stay byte-identical across formats
	// modulo the Dir block.
	if f := m.cfg.DirFormat; f.Kind != directory.FullMap {
		extra, bcast := f.ExtraInvals(e, keep, m.cfg.Nodes)
		m.st.Dir.ExtraInvals += extra
		if bcast {
			m.st.Dir.Broadcasts++
		}
	}
	return ackT
}

// loseCopy removes node n's copy of block (invalidation or downgrade-free
// loss) and informs the false-sharing classifier. A spinner asleep on n
// with its spin word in block wakes first, at the position of the
// transaction being serviced: its reads from then on miss.
func (m *Machine) loseCopy(n memory.NodeID, block memory.Addr, byInvalidation bool) {
	if m.asleep != nil {
		if p := m.asleep[n]; p != nil && p.spin.block == block {
			m.wake(p, m.servicing.at, m.servicing.proc.id)
		}
	}
	m.nodes[n].caches.Invalidate(block)
	if m.fs != nil {
		m.fs.OnLose(n, block, byInvalidation)
	}
}

// addSharer inserts R into e's sharer set and models the wire format's
// capacity: under a limited-pointer directory, exceeding the pointer count
// sets the sticky overflow bit and counts the event. The exact set remains
// simulation truth, so protocol behaviour is format-independent.
func (m *Machine) addSharer(e *directory.Entry, R memory.NodeID) {
	e.Sharers.Add(R)
	if f := m.cfg.DirFormat; f.Kind == directory.LimitedPtr && !e.Ovf && e.Sharers.Count() > f.Ptrs {
		e.Ovf = true
		m.st.Dir.Overflows++
	}
}

// clearSharers empties e's sharer set in place and rearms the wire-format
// overflow bit (the entry gets fresh pointers on its next sharing phase).
func (m *Machine) clearSharers(e *directory.Entry) {
	e.Sharers.Clear()
	e.Ovf = false
}

// fill installs a block into p's caches at time t and handles the L2
// victim, if any: Modified victims write back to their home; clean
// victims send a replacement hint so the directory stays exact (the
// "Repl" transitions of Fig. 1). Victim traffic does not stall the
// processor.
func (m *Machine) fill(p *Proc, block memory.Addr, s cache.State, t uint64) {
	v, evicted := m.nodes[p.id].caches.Fill(block, s)
	if !evicted {
		return
	}
	if m.checker != nil {
		m.touched = append(m.touched, v.Block)
	}
	vHome := m.layout.Home(v.Block)
	ve := m.dir.Entry(v.Block)
	switch v.State {
	case cache.Modified, cache.LStemp:
		if ve.Owner != p.id || (ve.State != directory.Dirty && ve.State != directory.Excl) {
			panic(fmt.Sprintf("engine: victim %#x state %v but directory %v owner %d",
				v.Block, v.State, ve.State, ve.Owner))
		}
		msg := stats.MsgWriteback
		if v.State == cache.LStemp {
			// Replacement before the predicted store: the block is
			// clean, only a hint travels; the home keeps the current
			// LS-bit value (Section 3.1, case 3).
			msg = stats.MsgReplHint
		}
		tv := m.send(p.id, vHome, msg, t)
		m.ctrl(vHome, tv, ctrlTime+memTime)
		ve.State = directory.Uncached
		ve.Owner = memory.NoNode
	case cache.Shared:
		tv := m.send(p.id, vHome, stats.MsgReplHint, t)
		m.ctrl(vHome, tv, ctrlTime)
		ve.Sharers.Remove(p.id)
		if ve.Sharers.Empty() {
			ve.State = directory.Uncached
		}
	}
	if m.fs != nil {
		m.fs.OnLose(p.id, v.Block, false)
	}
}
