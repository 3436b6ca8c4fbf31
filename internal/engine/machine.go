package engine

import (
	"fmt"
	"runtime/debug"

	"lsnuma/internal/cache"
	"lsnuma/internal/check"
	"lsnuma/internal/classify"
	"lsnuma/internal/directory"
	"lsnuma/internal/fault"
	"lsnuma/internal/memory"
	"lsnuma/internal/network"
	"lsnuma/internal/stats"
)

// Program is the code one simulated processor executes. It runs as an
// ordinary Go function on its own goroutine; every interaction with
// simulated memory goes through the Proc handle. Programs run one at a
// time, prologues (the code before the first memory operation) included:
// only the goroutine holding the right to run executes, so shared Go-side
// workload state needs no synchronization beyond the simulated locks. For
// the same reason programs must not wait on one another through Go
// channels, mutexes or WaitGroups: the waiter would keep the right to run
// and deadlock the run.
type Program func(p *Proc)

// node is the per-node hardware state.
type node struct {
	caches   *cache.Hierarchy
	ctrlBusy uint64 // memory-controller occupancy (busy-until)
}

// Machine is one simulated multiprocessor.
type Machine struct {
	cfg    Config
	layout memory.Layout
	dir    *directory.Directory
	net    *network.Network
	nodes  []*node
	st     *stats.Stats
	seq    *classify.Sequences
	fs     *classify.FalseSharing
	alloc  *memory.Allocator

	procs []*Proc

	// split is the reusable scratch buffer for block-straddling accesses
	// (see execute); only ever used between two scheduler steps.
	split []memory.Access

	// Scheduler state. Exactly one processor goroutine runs at a time: it
	// "holds the conch" and passes it on with a channel operation (a
	// resume, a go statement, or the outcome sent to Run on done), so only
	// the holder touches these fields and every access is ordered without
	// locks. programs holds Run's programs; started counts the processors
	// started so far, in CPU order.
	h        opHeap // parked operations, one per processor still running
	programs []Program
	started  int
	done     chan error

	// aborted is set once the run has failed: every processor woken from
	// then on unwinds out of its program (Machine.abort).
	aborted bool

	// runAheadOps counts operations serviced in place, without a
	// scheduler step (Proc.runInline; introspection/tests).
	runAheadOps uint64

	// Sleeping spinners (Machine.sleep and wake). asleep holds, by node,
	// the spinner asleep off the heap, or nil; it is nil itself when
	// spinners never sleep: under the serial scheduler, and with a
	// checker, fault injector or recorder attached, which see every
	// operation in service order. sleepers counts the non-nil entries;
	// sleeps and sleptReads count sleeps and the reads accounted on wake
	// (tests).
	asleep     []*Proc
	sleepers   int
	sleeps     uint64
	sleptReads uint64

	recorder func(OpRecord)

	// Robustness state (Config.CheckLevel / FaultInjector / Cancel).
	// hooks gates the whole per-operation robustness path with a single
	// comparison, so a machine with everything off pays nothing. servicing
	// is the operation popServe or Proc.runInline is servicing: on an
	// abort its processor may be parked in submit without an entry in the
	// heap, so abort puts it back.
	hooks      bool
	checker    *check.Checker
	checkEvery uint64
	faults     *fault.Injector
	servicing  *op
	// touched queues the blocks the current operation mutated for the
	// post-operation invariant check (checker only); opCount counts
	// serviced operations; sinceSweep counts operations since the last
	// full sweep under check.Full.
	touched    []memory.Addr
	opCount    uint64
	sinceSweep uint64

	// resil is the resilient transaction layer (finite home buffers,
	// NACK/retry, message-fault recovery, forward-progress watchdog);
	// nil when DirMSHRs, Retry and MsgFaults are all off.
	resil *resil
	// cancel, if set, is polled every 1024 serviced operations through
	// the hooks path (Config.Cancel).
	cancel func() error
}

// CancelledError aborts a run whose Config.Cancel hook reported an error
// (per-point wall-clock deadlines, context cancellation). errors.Is/As
// reach the hook's error through Unwrap.
type CancelledError struct{ Err error }

func (e *CancelledError) Error() string { return "engine: run cancelled: " + e.Err.Error() }

// Unwrap exposes the hook's error to errors.Is/As.
func (e *CancelledError) Unwrap() error { return e.Err }

// PanicError is a panic — in a program or in the engine itself —
// converted into a run error, with the goroutine stack captured at the
// point of recovery.
type PanicError struct {
	CPU   memory.NodeID // issuing CPU, or memory.NoNode when unattributable
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.CPU != memory.NoNode {
		return fmt.Sprintf("engine: program on CPU %d panicked: %v", e.CPU, e.Value)
	}
	return fmt.Sprintf("engine: panicked: %v", e.Value)
}

// livelockError is the failure of the MaxCycles livelock guard.
type livelockError struct {
	cpu memory.NodeID
	max uint64
}

func (e *livelockError) Error() string {
	return fmt.Sprintf("engine: CPU %d exceeded MaxCycles=%d (livelock guard)", e.cpu, e.max)
}

// recoveredError converts a recovered panic into the run's error. The
// structured failures — a CoherenceViolation from the online checker, a
// StarvationError from the forward-progress watchdog, a CancelledError
// from the Cancel hook, the livelock guard's error — pass through
// unchanged; anything else becomes a PanicError with the stack captured
// here, on the goroutine that panicked.
func recoveredError(cpu memory.NodeID, r any) error {
	switch v := r.(type) {
	case *check.CoherenceViolation:
		return v
	case *StarvationError:
		return v
	case *CancelledError:
		return v
	case *livelockError:
		return v
	}
	return &PanicError{CPU: cpu, Value: r, Stack: debug.Stack()}
}

// OpRecord describes one serviced memory operation: what the recorder
// hook is handed, a trace stores (trace.Op) and a failed point's
// operation trail lists. Its field order packs it into 32 bytes.
type OpRecord struct {
	CPU     memory.NodeID
	Compute uint32 // busy cycles since the CPU's previous operation
	At      uint64 // issuing processor's clock at issue
	Addr    memory.Addr
	Size    uint32
	Kind    memory.Kind
	RMW     bool
	Source  memory.Source
}

// String renders o as an operation-trail entry: "cpu1@218365 store 0x4bc0+8".
func (o OpRecord) String() string {
	s := fmt.Sprintf("cpu%d@%d %s %#x+%d", o.CPU, o.At, o.Kind, o.Addr, o.Size)
	if o.RMW {
		s += " (rmw)"
	}
	return s
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout, err := memory.NewLayout(cfg.PageSize, cfg.L2.BlockSize, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	st := stats.New(cfg.Nodes)
	nw, err := network.New(cfg.L2.BlockSize, cfg.Nodes, st)
	if err != nil {
		return nil, err
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = defaultMaxCycles
	}
	m := &Machine{
		cfg:    cfg,
		layout: layout,
		dir:    directory.New(layout, cfg.Protocol.InitEntry),
		net:    nw,
		st:     st,
		alloc:  memory.NewAllocator(layout, 0),
		faults: cfg.FaultInjector,
		cancel: cfg.Cancel,
	}
	for i := 0; i < cfg.Nodes; i++ {
		h, err := cache.NewHierarchy(cfg.L1, cfg.L2)
		if err != nil {
			return nil, err
		}
		m.nodes = append(m.nodes, &node{caches: h})
	}
	m.seq = classify.NewSequences(layout)
	m.seq.Locate = m.alloc.FindName
	if cfg.TrackFalseSharing {
		m.fs = classify.NewFalseSharing(layout, cfg.Nodes)
	}
	if cfg.CheckLevel > check.Off {
		m.checker = check.New(layout, m.dir, m.hierarchies())
		m.checkEvery = cfg.CheckInterval
		if m.checkEvery == 0 {
			m.checkEvery = 4096
		}
	}
	if cfg.DirMSHRs > 0 || cfg.MsgFaults != nil || cfg.Retry.Enabled() {
		m.resil = newResil(cfg)
	}
	m.hooks = m.checker != nil || m.faults != nil || m.cancel != nil
	return m, nil
}

// hierarchies returns the per-node cache hierarchies indexed by node ID.
func (m *Machine) hierarchies() []*cache.Hierarchy {
	hs := make([]*cache.Hierarchy, len(m.nodes))
	for i, n := range m.nodes {
		hs[i] = n.caches
	}
	return hs
}

// Layout returns the machine's address-space layout.
func (m *Machine) Layout() memory.Layout { return m.layout }

// Alloc returns the machine's shared address-space allocator, used by
// workloads to place their data structures before Run.
func (m *Machine) Alloc() *memory.Allocator { return m.alloc }

// Nodes returns the number of processor nodes.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// Stats exposes the statistics collector (final after Run returns).
func (m *Machine) Stats() *stats.Stats { return m.st }

// Sequences returns the load-store sequence analysis.
func (m *Machine) Sequences() *classify.Sequences { return m.seq }

// FalseSharing returns the Dubois miss classifier, or nil if disabled.
func (m *Machine) FalseSharing() *classify.FalseSharing { return m.fs }

// Directory exposes the directory for invariant checks in tests.
func (m *Machine) Directory() *directory.Directory { return m.dir }

// Hierarchy exposes node n's cache hierarchy for tests.
func (m *Machine) Hierarchy(n memory.NodeID) *cache.Hierarchy { return m.nodes[n].caches }

// SetRecorder installs a hook invoked for every memory operation, in
// service order, just before it is serviced: trace capture and a failed
// point's operation trail ride it. Must be set before Run. The hook sees
// the same sequence under either scheduler: it runs on the scheduler
// path and on run-ahead's in-place path alike. A panic with a
// *CancelledError ends the run with that error.
func (m *Machine) SetRecorder(fn func(OpRecord)) { m.recorder = fn }

// RunAheadOps returns the number of operations serviced in place,
// without a scheduler step (zero under SchedSerial).
func (m *Machine) RunAheadOps() uint64 { return m.runAheadOps }

// Run executes one program per processor to completion and finalizes the
// statistics. The i-th program runs on node i; if fewer programs than
// nodes are supplied the remaining processors stay idle. Run may be called
// only once per Machine.
//
// Each program runs on its own goroutine, and the goroutine holding the
// conch is the only one running. Processors start one at a time, in CPU
// order: each runs its prologue, parks its first operation in the heap
// and starts the next (startNext), and the last to start takes the first
// scheduler step. From then on every yield — a submit not serviced in
// place, or a program's return — takes a step, and Run only waits for the
// outcome on m.done.
func (m *Machine) Run(programs []Program) error {
	if m.procs != nil {
		return fmt.Errorf("engine: Run called twice on the same machine")
	}
	if len(programs) > m.cfg.Nodes {
		return fmt.Errorf("engine: %d programs for %d nodes", len(programs), m.cfg.Nodes)
	}
	for i, prog := range programs {
		if prog != nil { // a nil program leaves its node idle
			m.procs = append(m.procs, &Proc{m: m, id: memory.NodeID(i), resume: make(chan struct{})})
		}
	}
	if len(m.procs) == 0 {
		return m.finalize()
	}
	m.h.a = make([]*op, 0, len(m.procs))
	if m.cfg.Sched == SchedRunAhead && m.checker == nil && m.faults == nil && m.recorder == nil {
		m.asleep = make([]*Proc, m.cfg.Nodes)
	}
	m.programs = programs
	m.done = make(chan error)
	m.startNext()
	return <-m.done
}

// startNext starts the next processor in CPU order, handing it the conch,
// and reports whether one was left to start.
func (m *Machine) startNext() bool {
	if m.started == len(m.procs) {
		return false
	}
	p := m.procs[m.started]
	m.started++
	go p.run(m.programs[p.id])
	return true
}

// step is one scheduler step, taken by the goroutine holding the conch on
// behalf of self, whose own operation (if any) is already in the heap or
// asleep. It services the earliest pending operation (popServe) and
// resumes that operation's processor, unless it is self, and returns it.
// After startup, a processor still running always has its operation in
// the heap or asleep, so an empty heap with no sleeper means every
// program has returned and the run is complete.
func (m *Machine) step(self *Proc) *Proc {
	if len(m.h.a) == 0 && m.sleepers == 0 {
		m.done <- m.finalize()
		return nil
	}
	next := m.popServe().proc
	if next != self {
		next.resume <- struct{}{}
	}
	return next
}

// popServe pops the globally earliest pending operation, guards and
// services it — and, when it is a declarative spin-wait whose predicate
// is still false, advances the spinner and re-arms the read without
// waking its goroutine, or puts the spinner to sleep, then keeps going.
// It returns the first completed operation; its processor is the one to
// resume. While an operation is out of the heap it is m.servicing, so
// abort finds its processor.
//
// Iterating spins here is what makes contended barriers and locks cheap:
// each spin read is still a heap-ordered, fully modeled operation —
// byte-identical to the serial scheduler's plain loop — but a processor
// that spins N times costs one goroutine handoff instead of N. Its next
// reads are L1 hits that see the same value until its variable changes
// or another processor takes its copy, so unless an observer needs every
// operation it sleeps until then (sleep, wake) and costs no heap
// operation either.
func (m *Machine) popServe() *op {
	for {
		if m.sleepers > 0 {
			if o := m.h.min(); o == nil || o.at > m.cfg.MaxCycles {
				m.wakeAtGuard()
			}
		}
		next := m.h.pop()
		m.servicing = next
		if next.at > m.cfg.MaxCycles {
			panic(&livelockError{cpu: next.proc.id, max: m.cfg.MaxCycles})
		}
		m.service(next)
		p := next.proc
		if !next.spin || p.spin.stop() {
			m.servicing = nil
			return next
		}
		p.Compute(p.spin.step())
		next.at = p.clock
		m.servicing = nil
		if m.asleep != nil {
			m.sleep(p)
		} else {
			m.h.push(next)
		}
	}
}

// sleep takes spinner p, whose next read is parked in p.pending, off the
// heap and onto its variable's waiter list. The read just serviced left
// the spin word's block in p's L1, as every load does (a hit, a refill
// from L2 or a fill), and only a loss of the copy (loseCopy) removes it
// while p sleeps.
func (m *Machine) sleep(p *Proc) {
	s := &p.spin
	s.idx = len(*s.w)
	*s.w = append(*s.w, p)
	m.asleep[p.id] = p
	m.sleepers++
	m.sleeps++
}

// wake puts sleeping spinner p back on the heap at its first read that
// orders after (at, id), the position of the event that woke it: the
// operation after which its variable changed (Proc.wakeWaiters), the
// transaction that takes its copy (loseCopy), or the livelock guard.
//
// The reads before that position are accounted here in one loop, with no
// heap operation. Each is an L1 hit on p's own copy that sees the
// variable unchanged, so stop need not run, and it moves only p's Loads,
// L1Hits, Busy and clock. It makes one step call, whose backoff draws
// from p's own random source. Its L1 LRU tick leaves the line where the
// spin read left it, most recently used, and its false-sharing
// classifier call repeats the spin read's with no store to the block in
// between (a store would have taken the copy), so neither changes
// anything. So slept reads commute with every other operation, and
// accounting them late leaves the machine as servicing them in order
// would. p stays in m.asleep until it is back on the heap, so a Cancel
// hook that fires here leaves it where abort finds it.
func (m *Machine) wake(p *Proc, at uint64, id memory.NodeID) {
	o, s := &p.pending, &p.spin
	l1 := uint64(m.cfg.L1.AccessTime)
	reads, busy := uint64(0), uint64(0)
	for o.at < at || o.at == at && p.id < id {
		reads++
		if m.hooks {
			m.afterOp(o) // polls Config.Cancel, slept reads included
		}
		n := l1
		if k := s.step(); k > 0 {
			n += uint64(k)
		}
		busy += n
		o.at += n
	}
	cpu := &m.st.CPUs[p.id]
	cpu.Loads += reads
	cpu.L1Hits += reads
	cpu.Busy += busy
	p.clock = o.at
	m.sleptReads += reads
	w := *s.w
	last := w[len(w)-1]
	w[s.idx], last.spin.idx = last, s.idx
	w[len(w)-1] = nil
	*s.w = w[:len(w)-1]
	m.asleep[p.id] = nil
	m.sleepers--
	m.h.push(o)
}

// wakeAtGuard wakes every sleeping spinner at the livelock guard, once
// only sleepers are left before it: nothing can wake them sooner, so
// each spins up to MaxCycles, as the serial loop would.
func (m *Machine) wakeAtGuard() {
	for _, p := range m.asleep {
		if p != nil {
			m.wake(p, m.cfg.MaxCycles, memory.NodeID(m.cfg.Nodes))
		}
	}
}

// abort ends a failed run from the goroutine holding the conch on behalf
// of self. It wakes every other parked processor in turn; each panics out
// of its program with abortProgram and acknowledges on its resume channel
// before the next is woken, so the processors still unwind one at a time.
// The operation being serviced when the failure hit, and every sleeping
// spinner's, are out of the heap while their processors are still
// parked, so they go back first. Processors not yet started never start.
// Finally abort delivers err to Run.
func (m *Machine) abort(self *Proc, err error) {
	m.aborted = true
	if o := m.servicing; o != nil {
		m.servicing = nil
		m.h.push(o)
	}
	for i, p := range m.asleep {
		if p != nil {
			m.asleep[i] = nil
			m.h.push(&p.pending)
		}
	}
	for o := m.h.pop(); o != nil; o = m.h.pop() {
		if o.proc != self {
			o.proc.resume <- struct{}{}
			<-o.proc.resume
		}
	}
	m.done <- err
}

// service executes one operation: the recorder hook (if any), the
// pre-transaction check, the detailed memory-system model, the issuing
// processor's completion bookkeeping and the per-operation hooks. The
// scheduler calls it for the operation it pops; Proc.runInline calls it
// for the operation the next step would pop.
func (m *Machine) service(next *op) {
	if m.recorder != nil {
		m.record(next)
	}
	if m.checker != nil {
		m.precheckOp(next)
	}
	m.execute(next)
	next.proc.lastDone = next.proc.clock
	next.proc.lastAt = next.at
	if m.hooks {
		m.afterOp(next)
	}
}

// record passes o to the recorder, with the busy cycles its processor
// spent since its previous operation.
func (m *Machine) record(o *op) {
	gap := uint32(0)
	if o.at > o.proc.lastDone {
		gap = uint32(o.at - o.proc.lastDone)
	}
	m.recorder(OpRecord{CPU: o.proc.id, Compute: gap, At: o.at, Addr: o.addr,
		Size: o.size, Kind: o.kind, RMW: o.rmw, Source: o.proc.src})
}

// precheckOp validates every block the operation is about to touch, so a
// corruption is reported as a structured CoherenceViolation before the
// memory system trips over it with a bare panic.
func (m *Machine) precheckOp(o *op) {
	first := m.layout.Block(o.addr)
	last := first
	if o.size > 0 {
		last = m.layout.Block(o.addr + memory.Addr(o.size) - 1)
	}
	for b := first; ; b += memory.Addr(m.layout.BlockSize) {
		if err := m.checker.CheckBlock(b, o.at); err != nil {
			panic(err)
		}
		if b >= last {
			break
		}
	}
}

// afterOp runs the per-operation robustness hooks once an operation has
// been fully serviced: cancel polling, the touched-block invariant checks,
// fault injection, and the periodic full sweep. Checker failures panic
// with a *CoherenceViolation and flow through the normal abort machinery.
func (m *Machine) afterOp(o *op) {
	m.opCount++
	if m.cancel != nil && m.opCount&1023 == 0 {
		if err := m.cancel(); err != nil {
			panic(&CancelledError{Err: err})
		}
	}
	if m.checker != nil {
		for _, b := range m.touched {
			if err := m.checker.CheckBlock(b, o.proc.clock); err != nil {
				m.touched = m.touched[:0]
				panic(err)
			}
		}
		m.touched = m.touched[:0]
	}
	if m.faults != nil {
		m.faults.Tick(m, m.opCount, o.proc.clock)
	}
	if m.checker != nil && m.cfg.CheckLevel >= check.Full {
		m.sinceSweep++
		if m.sinceSweep >= m.checkEvery {
			m.sinceSweep = 0
			if err := m.checker.CheckAll(o.proc.clock); err != nil {
				panic(err)
			}
		}
	}
}

// finalize completes the statistics of a run whose programs have all
// returned, with the end-of-run whole-machine sweep under check.Full.
func (m *Machine) finalize() error {
	if m.fs != nil {
		m.fs.Finalize()
	}
	if m.checker == nil || m.cfg.CheckLevel < check.Full {
		return nil
	}
	var t uint64
	for _, p := range m.procs {
		if p.clock > t {
			t = p.clock
		}
	}
	return m.checker.CheckAll(t)
}

// CheckCoherence validates the machine-wide coherence invariants — SWMR,
// directory exactness, home-state legality, no ghost holders, inclusion —
// through the shared internal/check package, the same code the engine
// runs online under Config.CheckLevel, so the model-check tests and the
// online checker cannot drift apart. Intended for tests after (or during)
// a run; failures are *check.CoherenceViolation values.
func (m *Machine) CheckCoherence() error {
	c := m.checker
	if c == nil {
		c = check.New(m.layout, m.dir, m.hierarchies())
	}
	return c.CheckAll(0)
}
