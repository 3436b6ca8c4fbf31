package engine

import (
	"math/rand"

	"lsnuma/internal/memory"
)

// abortProgram is the panic a parked processor raises when it is woken
// after the run has failed (Machine.abort): it unwinds the program,
// ending spin loops that would otherwise never return, into the
// goroutine's recover, which acknowledges the wake-up.
type abortProgram struct{}

// op is one memory operation submitted to the scheduler.
type op struct {
	proc *Proc
	at   uint64 // processor clock at issue
	addr memory.Addr
	size uint32
	kind memory.Kind
	rmw  bool // atomic read-modify-write (e.g. SPARC ldstub/swap)
	excl bool // exclusive-read annotation (software prefetch-exclusive)

	// spin marks a declarative spin-wait (Proc.spinRead): after each
	// service the scheduler evaluates the processor's spin state and,
	// while stop is false, re-arms the read step busy cycles later, or
	// puts the spinner to sleep, without waking its goroutine
	// (Machine.popServe).
	spin bool
}

// spinState is a processor's declarative spin-wait: its predicate pair,
// the spin word's block, and the waiter list it sleeps on. Both closures
// run on whichever goroutine holds the conch; the one-goroutine-at-a-time
// discipline makes that as safe as running them on the spinning
// processor's own goroutine, in exactly the same order. Each Proc reuses
// its one spinState for every spin.
type spinState struct {
	stop  func() bool // terminate the spin after the read just serviced?
	step  func() int  // busy cycles until the next read
	block memory.Addr // the spin word's block
	w     *waiters    // the Lock's or Barrier's list it sleeps on
	idx   int         // its index in *w while it sleeps
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
	// to compute trace capture gaps); lastAt is that operation's issue
	// time, the position of a release that follows it (Proc.wakeWaiters).
	lastDone uint64
	lastAt   uint64

	// pending is the processor's single in-flight operation, reused across
	// submissions: submit blocks until the scheduler has serviced it, so
	// one op per processor suffices and the per-access heap allocation of
	// a fresh op is avoided.
	pending op
	spin    spinState
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

// run is processor p's goroutine. Its recover is the engine's only one:
// every scheduler step runs on the goroutine holding the conch, inside a
// submit or after a program returns here, so every failure — a program
// panic, a checker violation, a cancellation, the livelock guard — lands
// in it and aborts the run. A panic while servicing an operation is
// attributed to that operation's CPU.
func (p *Proc) run(prog Program) {
	m := p.m
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(abortProgram); ok {
			p.resume <- struct{}{} // acknowledge Machine.abort's wake-up
			return
		}
		cpu := p.id
		if o := m.servicing; o != nil {
			cpu = o.proc.id
		}
		m.abort(p, recoveredError(cpu, r))
	}()
	prog(p)
	if !m.startNext() {
		m.step(p)
	}
}

// submit services one memory operation. When it is the operation the
// next scheduler step would pop anyway, it is serviced in place
// (runInline). Otherwise it parks in the heap and the conch passes on:
// during startup to the next processor, afterwards through a scheduler
// step, which keeps the conch here when our own operation wins (zero
// context switches) and otherwise hands it to the winner (one switch).
// Either way it blocks until a later step services our operation. On
// every return the operation has been serviced and the clock advanced by
// the modeled latency.
func (p *Proc) submit(o op) {
	o.proc = p
	o.at = p.clock
	p.pending = o
	if p.runInline() {
		return
	}
	m := p.m
	m.h.push(&p.pending)
	if m.startNext() || m.step(p) != p {
		<-p.resume
		if m.aborted {
			panic(abortProgram{})
		}
	}
}

// spinRead is the engine's spin-wait primitive, for Lock and Barrier:
// simulated word reads of addr until stop() holds, separated by step()
// busy cycles — exactly the load / test / backoff loop it replaces, with
// identical simulated timing and service order. Under the run-ahead
// scheduler the iterations after the first are serviced declaratively by
// whichever goroutine holds the conch (Machine.popServe), so a spinning
// processor costs no goroutine handoffs until its predicate flips, and a
// spinner whose copy of the word sits in its own L1 sleeps on w, off the
// heap, until the variable changes or it loses the copy (Machine.wake).
// stop must therefore read only state whose every change wakes w. The
// serial scheduler runs the plain loop.
func (p *Proc) spinRead(addr memory.Addr, w *waiters, stop func() bool, step func() int) {
	p.Read(addr)
	if stop() {
		return
	}
	if p.m.cfg.Sched == SchedSerial {
		for {
			p.Compute(step())
			p.Read(addr)
			if stop() {
				return
			}
		}
	}
	p.Compute(step())
	p.spin = spinState{stop: stop, step: step, block: p.m.layout.Block(addr), w: w}
	p.submit(op{addr: addr, size: memory.WordSize, kind: memory.Load, spin: true})
}

// wakeWaiters wakes every spinner asleep on w. Its caller has just
// changed the variable they spin on, in program code that follows its
// last serviced operation, so that is the wake position. The woken
// spinners are back on the heap before the caller's next operation, the
// store to the spin word, is compared with its minimum (runInline).
func (p *Proc) wakeWaiters(w *waiters) {
	for len(*w) > 0 {
		p.m.wake((*w)[len(*w)-1], p.lastAt, p.id)
	}
}

// runInline services p's pending operation in place, with no scheduler
// step, and reports whether it did. Under SchedRunAhead it does so when
// the operation orders before every operation in the heap: that is the
// operation the next step would pop, so the service order stays the
// serial scheduler's, provided also that
//
//   - every processor has started, so prologues keep their CPU order;
//   - it is not a spin read, whose stop, step and sleep popServe runs;
//   - it is within MaxCycles, so popServe raises the livelock guard.
//
// SchedSerial, the reference, steps for every operation. Sleeping
// spinners are off the heap, but their slept reads commute with every
// operation except the two that wake them (Machine.wake), and both push
// the spinner back before the next comparison: wakeWaiters runs before
// the waker submits its store, and loseCopy runs inside the service that
// takes the copy. As in popServe, the operation is m.servicing
// meanwhile, so loseCopy knows the wake position and a failure is
// attributed to p.
func (p *Proc) runInline() bool {
	m, o := p.m, &p.pending
	if m.cfg.Sched == SchedSerial || m.started < len(m.procs) || o.spin || o.at > m.cfg.MaxCycles {
		return false
	}
	if next := m.h.min(); next != nil && !opBefore(o, next) {
		return false
	}
	m.servicing = o
	m.service(o)
	m.servicing = nil
	m.runAheadOps++
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
