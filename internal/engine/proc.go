package engine

import (
	"fmt"
	"math/rand"

	"lsnuma/internal/cache"
	"lsnuma/internal/memory"
)

// abortProgram is the sentinel panic Proc.submit raises once the
// scheduler has failed and is draining: it unwinds the program goroutine
// (terminating spin loops that would otherwise never return), and the
// goroutine's recover reports it back as the processor's final event —
// unless notify is false, which marks the goroutine that initiated the
// abort itself (its abortConch already delivered the error and nobody
// is listening for a further event).
type abortProgram struct{ notify bool }

// isAbort reports whether a recovered panic value is the drain sentinel.
func isAbort(r any) bool {
	_, ok := r.(abortProgram)
	return ok
}

// op is one memory operation submitted to the scheduler.
type op struct {
	proc *Proc
	at   uint64 // processor clock at issue
	addr memory.Addr
	size uint32
	kind memory.Kind
	rmw  bool // atomic read-modify-write (e.g. SPARC ldstub/swap)
	excl bool // exclusive-read annotation (software prefetch-exclusive)

	// spin marks a declarative spin-wait (Proc.SpinRead): after each
	// service the scheduler evaluates spin.stop and, while it is false,
	// re-arms the read spin.step busy cycles later without waking the
	// processor's goroutine (Machine.popServe).
	spin *spinState
}

// spinState is the predicate pair of a declarative spin-wait. Both
// closures run on whichever goroutine holds the conch; the
// one-goroutine-at-a-time discipline makes that as safe as running them
// on the spinning processor's own goroutine, in exactly the same order.
type spinState struct {
	stop func() bool // terminate the spin after the read just serviced?
	step func() int  // busy cycles until the next read
}

// Proc is a simulated processor's handle onto the machine, passed to its
// Program. All methods must be called only from that program's goroutine.
type Proc struct {
	m      *Machine
	id     memory.NodeID
	clock  uint64
	src    memory.Source
	resume chan struct{}
	rng    *rand.Rand

	// writeDrain is the completion time of the last buffered store under
	// the relaxed-consistency model (zero when modeling SC).
	writeDrain uint64
	// lastDone is the clock after the previous operation completed (used
	// to compute trace capture gaps).
	lastDone uint64

	// pending is the processor's single in-flight operation, reused across
	// submissions: submit blocks until the scheduler has serviced it, so
	// one op per processor suffices and the per-access heap allocation of
	// a fresh op is avoided.
	pending op

	// leaseAt/leaseID are the processor's run-ahead lease: the (clock, id)
	// horizon of the best other pending operation, granted by the
	// scheduler on resume. Operations ordering strictly before the
	// horizon are serviced inline with no scheduler handshake (see
	// runInline). Zero under the serial scheduler, which never grants
	// leases, so the inline path is dead there (the zero lease rejects
	// every operation, including during the concurrent startup phase).
	leaseAt uint64
	leaseID memory.NodeID

	// active marks a processor that has completed its first handoff-
	// scheduler submission: from then on, whenever its goroutine runs it
	// holds the conch and drives scheduler steps itself (see submit).
	// Always false under the serial scheduler. Written only by this
	// processor's goroutine.
	active bool
}

// ID returns the processor's node id.
func (p *Proc) ID() memory.NodeID { return p.id }

// Clock returns the processor's current local time in cycles.
func (p *Proc) Clock() uint64 { return p.clock }

// Machine returns the machine the processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Rand returns a per-processor deterministic random source (seeded by CPU
// id), for workloads that need randomized but reproducible behaviour.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(0x9E3779B9*int64(p.id) + 1))
	}
	return p.rng
}

// SetSource sets the source class (application, library, OS) attributed to
// subsequent accesses, for the Table 2 breakdown.
func (p *Proc) SetSource(s memory.Source) { p.src = s }

// Source returns the current source class.
func (p *Proc) Source() memory.Source { return p.src }

// Compute advances the processor's clock by n busy cycles without touching
// memory. Computation is local, so it needs no scheduling round-trip; the
// clock ordering with other processors is enforced at the next memory
// operation.
func (p *Proc) Compute(n int) {
	if n <= 0 {
		return
	}
	p.clock += uint64(n)
	p.m.st.CPUs[p.id].Busy += uint64(n)
}

// submit services one memory operation. Fast path: inline in this
// goroutine when the run-ahead lease permits (runInline). Otherwise,
// under the handoff scheduler, this goroutine holds the conch and drives
// one scheduler step itself: park the operation in the heap, pop the
// global minimum, service it, and either continue (own op won — zero
// context switches) or hand the conch to the winner and block until a
// later step services our operation (one switch). The serial scheduler
// and the processor's very first operation instead go through the events
// channel to the goroutine running Machine.Run. On every return the
// operation has been serviced and the clock advanced by the modeled
// latency.
func (p *Proc) submit(o op) {
	o.proc = p
	o.at = p.clock
	if p.runInline(&o) {
		return
	}
	p.pending = o
	m := p.m
	if m.serial || !p.active {
		// Serial scheduler, or the first operation (collected centrally
		// by Machine.schedule while the prologues run concurrently).
		m.events <- event{proc: p, op: &p.pending}
		<-p.resume
		if m.aborted {
			panic(abortProgram{notify: true})
		}
		p.active = !m.serial
		return
	}
	m.h.push(&p.pending)
	next, ok := m.popServe()
	if !ok {
		// next was re-parked by popServe; park ourselves with the rest.
		m.abortConch(p, fmt.Errorf("engine: CPU %d exceeded MaxCycles=%d (livelock guard)", next.proc.id, m.cfg.MaxCycles))
		panic(abortProgram{notify: false})
	}
	m.grantLease(next.proc)
	if next.proc == p {
		return // our own operation won: keep the conch
	}
	next.proc.resume <- struct{}{}
	<-p.resume
	if m.aborted {
		panic(abortProgram{notify: true})
	}
}

// SpinRead is the engine's spin-wait primitive: simulated word reads of
// addr until stop() holds, separated by step() busy cycles — exactly the
// load / test / backoff loop it replaces, with identical simulated timing
// and service order. Under the handoff scheduler the iterations after the
// first are serviced declaratively by whichever goroutine holds the conch
// (Machine.popServe), so a spinning processor costs no goroutine handoffs
// until its predicate flips; under the serial scheduler (and during the
// concurrent startup phase) it degrades to the plain loop.
func (p *Proc) SpinRead(addr memory.Addr, stop func() bool, step func() int) {
	p.Read(addr)
	if stop() {
		return
	}
	// p.active is guaranteed by the Read above except under the serial
	// scheduler, which never activates processors.
	if p.m.serial {
		for {
			p.Compute(step())
			p.Read(addr)
			if stop() {
				return
			}
		}
	}
	p.Compute(step())
	p.submit(op{addr: addr, size: memory.WordSize, kind: memory.Load,
		spin: &spinState{stop: stop, step: step}})
}

// runInline services o in the processor's own goroutine under its
// run-ahead lease, with no scheduler handshake, and reports whether it
// did. It may do so only when both hold:
//
//   - (o.at, p.id) orders strictly before the lease horizon — these are
//     exactly the operations the scheduler would pick next anyway, so
//     servicing them here preserves the global service order bit for bit;
//   - the operation is purely local: single-block, not an atomic, within
//     the MaxCycles guard, and classified hit/upgrade-free without side
//     effects — everything global (directory, network, invalidations,
//     the livelock guard) stays on the scheduler path.
//
// While this processor runs ahead, the scheduler is blocked receiving and
// every other processor is blocked on its resume channel, so the
// one-goroutine-at-a-time discipline (and with it the race-freedom of the
// shared simulator state) is unchanged.
func (p *Proc) runInline(o *op) bool {
	if o.at > p.leaseAt || (o.at == p.leaseAt && p.id >= p.leaseID) {
		return false
	}
	if o.rmw || o.spin != nil {
		return false
	}
	m := p.m
	if m.cfg.MaxCycles > 0 && o.at > m.cfg.MaxCycles {
		return false
	}
	if !m.layout.SameBlock(o.addr, o.addr+memory.Addr(o.size)-1) {
		return false
	}
	if m.nodes[p.id].caches.Classify(m.layout.Block(o.addr), o.kind) != cache.NoGlobal {
		return false
	}
	if m.recorder != nil {
		m.record(o)
	}
	if m.checker != nil {
		// Same pre-transaction check as Machine.service (single block by
		// the guard above). A violation panics out of the program function
		// into its goroutine's recover, which aborts the run.
		if err := m.checker.CheckBlock(o.addr, o.at); err != nil {
			panic(err)
		}
	}
	m.accessBlock(p, o.addr, o.size, o.kind, false, o.excl)
	p.lastDone = p.clock
	m.runAheadOps++
	if m.hooks {
		m.afterOp(o)
	}
	return true
}

// Read performs a word-sized load at addr.
func (p *Proc) Read(addr memory.Addr) {
	p.submit(op{addr: addr, size: memory.WordSize, kind: memory.Load})
}

// ReadN performs a load of size bytes at addr (split per block as needed).
func (p *Proc) ReadN(addr memory.Addr, size uint32) {
	if size == 0 {
		return
	}
	p.submit(op{addr: addr, size: size, kind: memory.Load})
}

// Write performs a word-sized store at addr.
func (p *Proc) Write(addr memory.Addr) {
	p.submit(op{addr: addr, size: memory.WordSize, kind: memory.Store})
}

// WriteN performs a store of size bytes at addr.
func (p *Proc) WriteN(addr memory.Addr, size uint32) {
	if size == 0 {
		return
	}
	p.submit(op{addr: addr, size: size, kind: memory.Store})
}

// ReadEx performs a word-sized load annotated exclusive: under a machine
// configured with SoftwareExclusive the read request is combined with an
// ownership acquisition (the compiler techniques of §2.1); otherwise it
// behaves exactly like Read.
func (p *Proc) ReadEx(addr memory.Addr) {
	p.submit(op{addr: addr, size: memory.WordSize, kind: memory.Load, excl: true})
}

// ReadExN is ReadEx for a size-byte access.
func (p *Proc) ReadExN(addr memory.Addr, size uint32) {
	if size == 0 {
		return
	}
	p.submit(op{addr: addr, size: size, kind: memory.Load, excl: true})
}

// RMW performs an atomic word-sized read-modify-write at addr: a load
// immediately followed by a store to the same location with no intervening
// access from any other processor — the hardware primitive (ldstub, swap)
// behind locks, and the archetypal load-store sequence of the paper.
func (p *Proc) RMW(addr memory.Addr) {
	p.submit(op{addr: addr, size: memory.WordSize, kind: memory.Store, rmw: true})
}
