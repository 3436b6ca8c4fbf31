package engine

import (
	"fmt"
	"math/rand"
	"strings"

	"lsnuma/internal/directory"
	"lsnuma/internal/fault"
	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
	"lsnuma/internal/stats"
)

// defaultProgressWindow is the forward-progress watchdog's stall budget
// when Config.ProgressWindow is zero: a transaction stuck in NACK/loss
// recovery for this many cycles fails the run.
const defaultProgressWindow = 4_000_000

// resil is the machine's resilient transaction layer, nil when DirMSHRs,
// Retry and MsgFaults are all off (the classic reliable, infinitely-
// buffered model — a nil resil costs one comparison per message).
//
// The two recovery paths deliberately differ in timing visibility:
//
//   - The MSHR path (finite home transaction buffers, Machine.acquire) is
//     fully architectural: NACKs delay the transaction and backoff jitter
//     is drawn from a dedicated seeded stream. Home saturation depends
//     only on the configuration, so a faulty and a fault-free run of the
//     same config see the identical NACK sequence and jitter draws.
//
//   - The message-fault path (Machine.deliver) is architecturally
//     transparent: the simulated programs synchronize through spin locks,
//     so any timing shift would change lock-acquisition interleavings and
//     with them every Load/Store count. Retransmissions are therefore
//     accounted out-of-band — the extra messages enter the traffic
//     counters and the backoff waits enter stats.Resilience, but no port
//     is occupied and no clock advances — modeling retries that ride on
//     spare interconnect capacity. This is exactly what makes a lossy run
//     comparable field-for-field (minus traffic) to the lossless run,
//     the TestResilientMatrix invariant.
type resil struct {
	policy protocol.RetryPolicy
	window uint64                // forward-progress stall budget in cycles
	mshrs  *directory.TxnBuffers // nil = unlimited home buffers
	faults *fault.MsgInjector    // nil = reliable interconnect
	jitter *rand.Rand            // architectural backoff jitter (MSHR path)

	// Open-transaction buffer bookkeeping (transactions never nest:
	// acquire sets it, complete clears it).
	home memory.NodeID
	slot int

	// retriers records which nodes retried each block, for the starvation
	// report's requester set.
	retriers map[memory.Addr]directory.Bitset
}

func newResil(cfg Config) *resil {
	r := &resil{
		policy:   cfg.Retry,
		window:   cfg.ProgressWindow,
		faults:   cfg.MsgFaults,
		slot:     -1,
		retriers: make(map[memory.Addr]directory.Bitset),
	}
	if r.window == 0 {
		r.window = defaultProgressWindow
	}
	if cfg.DirMSHRs > 0 {
		r.mshrs = directory.NewTxnBuffers(cfg.Nodes, cfg.DirMSHRs)
	}
	if r.policy.Enabled() {
		r.jitter = rand.New(rand.NewSource(r.policy.JitterSeed))
	}
	return r
}

// noteRetry records node n retrying block, for starvation diagnostics.
func (r *resil) noteRetry(block memory.Addr, n memory.NodeID) {
	b := r.retriers[block]
	b.Add(n)
	r.retriers[block] = b
}

// StarvationError is the forward-progress watchdog's report: a
// transaction exceeded its retry budget or made no progress for the
// configured window. It carries the stuck block, the set of nodes that
// retried it, and the machine-wide retry histogram at the time of death.
type StarvationError struct {
	CPU        memory.NodeID // requester of the stuck transaction
	Block      memory.Addr   // block the transaction targeted
	Home       memory.NodeID // the block's home node
	Cycle      uint64        // simulated time the watchdog fired
	Retries    int           // retries attempted on the stuck transaction
	Budget     int           // configured retry budget (0 = retries disabled)
	Stalled    uint64        // cycles the transaction spent in recovery
	Window     uint64        // configured progress window
	Cause      string
	Requesters []memory.NodeID // nodes that retried the stuck block
	RetryHist  [stats.NumRetryBuckets]uint64
}

func (e *StarvationError) Error() string {
	return fmt.Sprintf("engine: starvation: CPU %d stuck on block %#x (home %d) at cycle %d: %s (retries %d/%d, stalled %d of %d-cycle window)",
		e.CPU, e.Block, e.Home, e.Cycle, e.Cause, e.Retries, e.Budget, e.Stalled, e.Window)
}

// Diagnosis renders the full watchdog report for repro bundles: the
// headline, the stuck block's requester set, and the retry histogram.
func (e *StarvationError) Diagnosis() string {
	var b strings.Builder
	b.WriteString(e.Error())
	fmt.Fprintf(&b, "\nrequesters of the stuck block: %v", e.Requesters)
	b.WriteString("\nrecovered-transaction retry histogram:")
	any := false
	for i, n := range e.RetryHist {
		if n > 0 {
			fmt.Fprintf(&b, " %s:%d", stats.RetryBucketLabels[i], n)
			any = true
		}
	}
	if !any {
		b.WriteString(" (no transaction ever recovered)")
	}
	return b.String()
}

// starve builds the watchdog's error for a stuck transaction.
func (m *Machine) starve(cpu memory.NodeID, block memory.Addr, home memory.NodeID, at uint64, retries int, stalled uint64, cause string) *StarvationError {
	r := m.resil
	r.noteRetry(block, cpu)
	e := &StarvationError{
		CPU: cpu, Block: block, Home: home, Cycle: at,
		Retries: retries, Budget: r.policy.Max,
		Stalled: stalled, Window: r.window, Cause: cause,
		RetryHist: m.st.Resil.RetryHist,
	}
	r.retriers[block].ForEach(func(n memory.NodeID) {
		e.Requesters = append(e.Requesters, n)
	})
	return e
}

// send is the engine's message transmission: the architectural delivery
// through the network, preceded — on an unreliable interconnect — by the
// out-of-band fault/recovery accounting of deliver. The returned arrival
// time comes from the architectural delivery alone, so the timeline of a
// faulty run matches the fault-free run exactly.
func (m *Machine) send(from, to memory.NodeID, t stats.MsgType, now uint64) uint64 {
	if r := m.resil; r != nil && r.faults != nil && from != to {
		m.deliver(from, to, t, now)
	}
	return m.net.Send(from, to, t, now)
}

// deliver plays the unreliable-delivery game for one message: fault
// verdicts are drawn until a copy gets through. Every destroyed, extra or
// rejected copy — and every recovery action (NACKs, timeout
// retransmissions, backoff waits) — is accounted out-of-band; the final
// successful copy is not counted here, because the architectural
// net.Send in Machine.send is that copy. With retries disabled, the
// first loss is unrecoverable and the watchdog fails the run immediately
// (reported at the time its progress window would have expired) rather
// than simulating a hang.
func (m *Machine) deliver(from, to memory.NodeID, t stats.MsgType, now uint64) {
	r := m.resil
	rs := &m.st.Resil
	bs := m.cfg.L2.BlockSize
	// The requester and block of the in-flight transaction, for the
	// watchdog report (victim/ack traffic is attributed to the operation
	// that triggered it).
	cpu, block := from, memory.Addr(0)
	if o := m.servicing; o != nil {
		cpu, block = o.proc.id, m.layout.Block(o.addr)
	}
	home := m.layout.Home(block)
	retries := 0
	var stalled uint64
	for {
		switch r.faults.Verdict() {
		case fault.Deliver:
			if retries > 0 {
				rs.NoteRecovered(uint64(retries))
				r.noteRetry(block, cpu)
			}
			return

		case fault.Dup:
			// The extra copy arrives and is discarded idempotently; only
			// the wasted traffic is visible. The original still delivers.
			rs.DupMsgs++
			m.st.AddMsg(t, bs)
			return

		case fault.Drop:
			// The copy is destroyed in transit (its traffic up to the loss
			// point still counts). The sender detects the loss by timeout
			// — one backoff cap as a conservative round-trip bound — then
			// backs off and retransmits.
			rs.DroppedMsgs++
			m.st.AddMsg(t, bs)
			if !r.policy.Enabled() {
				panic(m.starve(cpu, block, home, now+r.window, retries, r.window,
					fmt.Sprintf("%s message lost and retries disabled — no retransmission will ever arrive", t)))
			}
			retries++
			if retries > r.policy.Max {
				panic(m.starve(cpu, block, home, now, retries-1, stalled, "retry budget exhausted recovering lost messages"))
			}
			wait := r.policy.Cap + r.policy.Backoff(retries, nil)
			rs.NoteBackoff(wait)
			rs.TimeoutResends++
			rs.Retries++
			stalled += wait
			if stalled > r.window {
				panic(m.starve(cpu, block, home, now, retries, stalled, "no forward progress within the progress window"))
			}

		case fault.Reorder:
			// The copy arrives out of order; the receiver rejects it with
			// a NACK (both travel and count) and the sender retransmits
			// after a backoff.
			rs.ReorderedMsgs++
			m.st.AddMsg(t, bs)
			m.st.AddMsg(stats.MsgRetry, bs)
			if !r.policy.Enabled() {
				panic(m.starve(cpu, block, home, now+r.window, retries, r.window,
					fmt.Sprintf("%s message rejected out-of-order and retries disabled", t)))
			}
			retries++
			if retries > r.policy.Max {
				panic(m.starve(cpu, block, home, now, retries-1, stalled, "retry budget exhausted recovering reordered messages"))
			}
			wait := r.policy.Backoff(retries, nil)
			rs.NoteBackoff(wait)
			rs.Retries++
			stalled += wait
			if stalled > r.window {
				panic(m.starve(cpu, block, home, now, retries, stalled, "no forward progress within the progress window"))
			}
		}
	}
}

// request transmits a transaction's opening request from p to the home H
// and — under finite DirMSHRs — secures a home transaction buffer,
// NACK-and-retrying while the home is saturated. It returns the time the
// home controller accepted the request. Only transaction-opening
// requests contend for buffers; replies, forwards, invalidations and
// victim traffic ride the transaction's existing buffer.
func (m *Machine) request(p *Proc, block memory.Addr, H memory.NodeID, typ stats.MsgType, at uint64) uint64 {
	t := m.send(p.id, H, typ, at)
	if r := m.resil; r != nil && r.mshrs != nil {
		t = m.acquire(p, block, H, typ, t)
	}
	return m.ctrl(H, t, m.cfg.Timing.CtrlTime)
}

// acquire claims a home transaction buffer for a request that arrived at
// time t, retrying with bounded backoff while every buffer is busy. The
// whole loop is architectural — the NACK and the retransmission occupy
// ports, the backoff advances the transaction, and jitter comes from the
// dedicated seeded stream — because buffer saturation is a property of
// the configuration, identical across faulty and fault-free runs.
func (m *Machine) acquire(p *Proc, block memory.Addr, H memory.NodeID, typ stats.MsgType, t uint64) uint64 {
	r := m.resil
	first := t
	retries := 0
	for {
		if slot, ok := r.mshrs.Reserve(H, t); ok {
			r.home, r.slot = H, slot
			if retries > 0 {
				m.st.Resil.NoteRecovered(uint64(retries))
			}
			return t
		}
		m.st.Resil.Nacks++
		r.noteRetry(block, p.id)
		nackT := m.send(H, p.id, stats.MsgRetry, t)
		if !r.policy.Enabled() {
			panic(m.starve(p.id, block, H, nackT, retries, nackT-first,
				"home transaction buffers saturated and retries disabled"))
		}
		retries++
		if retries > r.policy.Max {
			panic(m.starve(p.id, block, H, nackT, retries-1, nackT-first, "retry budget exhausted"))
		}
		wait := r.policy.Backoff(retries, r.jitter)
		m.st.Resil.NoteBackoff(wait)
		m.st.Resil.Retries++
		t = m.send(p.id, H, typ, nackT+wait)
		if t-first > r.window {
			panic(m.starve(p.id, block, H, t, retries, t-first, "no forward progress within the progress window"))
		}
	}
}

// complete releases the open transaction's home buffer at the time the
// transaction finished. The release time is the requester-side completion
// — slightly conservative (the home's involvement ends a hop earlier),
// which only makes buffer contention a little more pessimistic.
func (m *Machine) complete(done uint64) {
	r := m.resil
	if r == nil || r.slot < 0 {
		return
	}
	r.mshrs.Complete(r.home, r.slot, done)
	r.slot = -1
}
