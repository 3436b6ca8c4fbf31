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
// ordinary Go function; every interaction with simulated memory goes
// through the Proc handle. Programs of different processors never run
// concurrently — the scheduler resumes exactly one at a time — so shared
// Go-side workload state needs no synchronization beyond the simulated
// locks.
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

	procs  []*Proc
	events chan event

	// split is the reusable scratch buffer for block-straddling accesses
	// (see execute); only ever used between two scheduler steps.
	split []memory.Access

	// Scheduler state for the default handoff scheduler. Exactly one
	// goroutine is active at a time (initially Run, then whichever
	// processor goroutine last received a resume — it "holds the conch");
	// only the active goroutine touches these fields, and every transfer
	// of control happens through a channel operation, so the accesses are
	// totally ordered without locks.
	h    opHeap     // pending ops of every parked processor
	live int        // processors whose programs have not finished
	done chan error // handoff scheduler's completion signal to Run

	// serial selects the per-access handshake scheduler (SchedSerial);
	// set once before the goroutines start.
	serial bool

	// aborted is set (once) by drain/abortConch after a scheduler error;
	// program goroutines observe it after their next resume and
	// terminate. All accesses are ordered by the resume/events channel
	// operations.
	aborted bool

	// runAheadOps counts operations serviced inline under a run-ahead
	// lease, bypassing the scheduler handshake (introspection/tests).
	runAheadOps uint64

	recorder func(OpRecord)

	// Robustness state (Config.CheckLevel / FaultInjector / RecordOps).
	// hooks gates the whole per-operation robustness path with a single
	// comparison, so a machine with everything off pays nothing. servicing
	// is the operation currently inside Machine.service: on an abort its
	// processor is parked in submit without an entry in any pending list,
	// so the abort paths must wake it explicitly.
	hooks      bool
	checker    *check.Checker
	checkEvery uint64
	faults     *fault.Injector
	ring       []OpTrace // last-ops ring buffer (RecordOps)
	ringPos    int
	ringLen    int
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

// OpTrace is one entry of the crash-diagnostics ring buffer
// (Config.RecordOps): the operations serviced just before a failure.
type OpTrace struct {
	CPU  memory.NodeID
	At   uint64 // issuing processor's clock at issue
	Addr memory.Addr
	Size uint32
	Kind memory.Kind
	RMW  bool
}

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

// recoveredError converts a recovered panic into the run's error. The
// structured failures — a CoherenceViolation from the online checker, a
// StarvationError from the forward-progress watchdog, a CancelledError
// from the Cancel hook — pass through unchanged; anything else becomes a
// PanicError with the stack captured here, on the goroutine that
// panicked.
func recoveredError(cpu memory.NodeID, r any) error {
	switch v := r.(type) {
	case *check.CoherenceViolation:
		return v
	case *StarvationError:
		return v
	case *CancelledError:
		return v
	}
	return &PanicError{CPU: cpu, Value: r, Stack: debug.Stack()}
}

// eventError extracts the run error from a program goroutine's failure
// event (the goroutine's recover already converted the panic).
func eventError(ev event) error {
	if err, ok := ev.err.(error); ok {
		return err
	}
	return fmt.Errorf("engine: program on CPU %d panicked: %v", ev.proc.id, ev.err)
}

// OpRecord describes one scheduled memory operation, for trace capture.
type OpRecord struct {
	CPU     memory.NodeID
	Addr    memory.Addr
	Size    uint32
	Kind    memory.Kind
	RMW     bool
	Source  memory.Source
	Compute uint32 // busy cycles since the CPU's previous operation
}

type event struct {
	proc *Proc
	op   *op // nil means the program finished
	err  any // non-nil if the program panicked
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
	nw, err := network.New(network.Config{
		HopDelay:      cfg.Timing.HopDelay,
		BytesPerCycle: cfg.Timing.BytesPerCycle,
		BlockSize:     cfg.L2.BlockSize,
		Topology:      cfg.Timing.Topology,
		Concentration: cfg.Timing.Concentration,
	}, cfg.Nodes, st)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:    cfg,
		layout: layout,
		dir:    directory.New(layout, cfg.Protocol.InitEntry),
		net:    nw,
		st:     st,
		alloc:  memory.NewAllocator(layout, 0),
	}
	for i := 0; i < cfg.Nodes; i++ {
		h, err := cache.NewHierarchy(cfg.L1, cfg.L2)
		if err != nil {
			return nil, err
		}
		m.nodes = append(m.nodes, &node{caches: h})
	}
	if cfg.TrackSequences {
		m.seq = classify.NewSequences(layout)
		m.seq.Locate = m.alloc.FindName
	}
	if cfg.TrackFalseSharing {
		m.fs = classify.NewFalseSharing(layout, cfg.Nodes)
	}
	if cfg.CheckLevel > check.Off {
		m.checker = check.New(layout, m.dir, m.hierarchies())
		m.checkEvery = cfg.CheckInterval
		if m.checkEvery == 0 {
			m.checkEvery = 4096
		}
		m.touched = make([]memory.Addr, 0, 8)
	}
	m.faults = cfg.FaultInjector
	if cfg.RecordOps > 0 {
		m.ring = make([]OpTrace, cfg.RecordOps)
	}
	if cfg.DirMSHRs > 0 || cfg.MsgFaults != nil || cfg.Retry.Enabled() {
		m.resil = newResil(cfg)
	}
	m.cancel = cfg.Cancel
	m.hooks = m.checker != nil || m.faults != nil || m.ring != nil || m.cancel != nil
	return m, nil
}

// Reset returns the machine to its post-NewMachine state under a (possibly
// different) configuration, so sweep runners can re-run points against one
// machine instead of reallocating caches, directory pages and scheduler
// structures per point. The new configuration must match the machine's
// structure — node count, cache geometry and page size — and must not
// install fault injectors (injector state is per-machine; pooling faulted
// machines would break their determinism). A Reset machine produces
// bit-identical Results to a freshly built one.
func (m *Machine) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Nodes != m.cfg.Nodes || cfg.L1 != m.cfg.L1 || cfg.L2 != m.cfg.L2 ||
		cfg.PageSize != m.cfg.PageSize {
		return fmt.Errorf("engine: Reset with structurally different config")
	}
	if cfg.FaultInjector != nil || cfg.MsgFaults != nil {
		return fmt.Errorf("engine: Reset with fault injectors (build a fresh machine)")
	}
	m.st.Reset()
	nw, err := network.New(network.Config{
		HopDelay:      cfg.Timing.HopDelay,
		BytesPerCycle: cfg.Timing.BytesPerCycle,
		BlockSize:     cfg.L2.BlockSize,
		Topology:      cfg.Timing.Topology,
		Concentration: cfg.Timing.Concentration,
	}, cfg.Nodes, m.st)
	if err != nil {
		return err
	}
	m.cfg = cfg
	m.net = nw
	m.dir.SetInit(cfg.Protocol.InitEntry)
	m.dir.Reset()
	for _, n := range m.nodes {
		n.caches.Reset()
		n.ctrlBusy = 0
	}
	m.alloc = memory.NewAllocator(m.layout, 0)
	m.seq = nil
	if cfg.TrackSequences {
		m.seq = classify.NewSequences(m.layout)
		m.seq.Locate = m.alloc.FindName
	}
	m.fs = nil
	if cfg.TrackFalseSharing {
		m.fs = classify.NewFalseSharing(m.layout, cfg.Nodes)
	}
	m.checker, m.checkEvery = nil, 0
	m.touched, m.opCount, m.sinceSweep = m.touched[:0], 0, 0
	if cfg.CheckLevel > check.Off {
		m.checker = check.New(m.layout, m.dir, m.hierarchies())
		m.checkEvery = cfg.CheckInterval
		if m.checkEvery == 0 {
			m.checkEvery = 4096
		}
	}
	m.faults = nil
	m.ring, m.ringPos, m.ringLen = nil, 0, 0
	if cfg.RecordOps > 0 {
		m.ring = make([]OpTrace, cfg.RecordOps)
	}
	m.resil = nil
	if cfg.DirMSHRs > 0 || cfg.Retry.Enabled() {
		m.resil = newResil(cfg)
	}
	m.cancel = cfg.Cancel
	m.hooks = m.checker != nil || m.ring != nil || m.cancel != nil

	m.procs = nil
	m.events = nil
	m.done = nil
	m.h.a = m.h.a[:0]
	m.live = 0
	m.serial = false
	m.aborted = false
	m.runAheadOps = 0
	m.recorder = nil
	m.servicing = nil
	m.split = m.split[:0]
	return nil
}

// Trim drops the per-run state that Reset rebuilds anyway — the
// false-sharing classifier, the sequence detector, the allocator, the
// checker and the op ring — so a machine idling in a reuse pool pins
// only the structural arrays Reset keeps: caches, directory pages and
// scheduler buffers. Read the run's results before trimming; the
// machine runs again only after a Reset.
func (m *Machine) Trim() {
	m.fs, m.seq, m.alloc = nil, nil, nil
	m.checker = nil
	m.ring, m.ringPos, m.ringLen = nil, 0, 0
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

// Sequences returns the load-store sequence analysis, or nil if disabled.
func (m *Machine) Sequences() *classify.Sequences { return m.seq }

// FalseSharing returns the Dubois miss classifier, or nil if disabled.
func (m *Machine) FalseSharing() *classify.FalseSharing { return m.fs }

// Directory exposes the directory for invariant checks in tests.
func (m *Machine) Directory() *directory.Directory { return m.dir }

// Hierarchy exposes node n's cache hierarchy for tests.
func (m *Machine) Hierarchy(n memory.NodeID) *cache.Hierarchy { return m.nodes[n].caches }

// SetRecorder installs a hook invoked for every memory operation, in
// service order, just before it is serviced (trace capture). Must be set
// before Run. The hook sees the same sequence under either scheduler: it
// runs on the scheduler path and on run-ahead's inline path alike. A
// panic with a *CancelledError ends the run with that error.
func (m *Machine) SetRecorder(fn func(OpRecord)) { m.recorder = fn }

// RunAheadOps returns the number of operations serviced inline under a
// run-ahead lease (zero under SchedSerial).
func (m *Machine) RunAheadOps() uint64 { return m.runAheadOps }

// LastOps returns the crash-diagnostics ring (Config.RecordOps) in
// chronological order: the last operations serviced before Run returned.
func (m *Machine) LastOps() []OpTrace {
	if m.ringLen == 0 {
		return nil
	}
	out := make([]OpTrace, 0, m.ringLen)
	start := m.ringPos - m.ringLen
	if start < 0 {
		start += len(m.ring)
	}
	for i := 0; i < m.ringLen; i++ {
		out = append(out, m.ring[(start+i)%len(m.ring)])
	}
	return out
}

// Run executes one program per processor to completion and finalizes the
// statistics. The i-th program runs on node i; if fewer programs than
// nodes are supplied the remaining processors stay idle. Run may be called
// only once per Machine.
func (m *Machine) Run(programs []Program) error {
	if m.procs != nil {
		return fmt.Errorf("engine: Run called twice on the same machine")
	}
	if len(programs) > m.cfg.Nodes {
		return fmt.Errorf("engine: %d programs for %d nodes", len(programs), m.cfg.Nodes)
	}
	m.events = make(chan event)
	m.done = make(chan error)
	m.serial = m.cfg.Sched == SchedSerial
	for i, prog := range programs {
		if prog == nil {
			continue // nil program: the node stays idle
		}
		p := &Proc{
			m:      m,
			id:     memory.NodeID(i),
			resume: make(chan struct{}),
		}
		m.procs = append(m.procs, p)
		go func(prog Program, p *Proc) {
			defer func() {
				r := recover()
				switch {
				case r == nil:
					if p.active {
						m.finish(p) // holds the conch: drive the next step
						return
					}
					m.events <- event{proc: p}
				case isAbort(r):
					// Terminated by a drain; report back unless this
					// goroutine initiated the abort itself (the drain
					// then already ran and nobody is listening).
					if r.(abortProgram).notify {
						m.events <- event{proc: p, err: r}
					}
				case p.active:
					m.abortConch(p, recoveredError(p.id, r))
				default:
					m.events <- event{proc: p, err: recoveredError(p.id, r)}
				}
			}()
			prog(p)
		}(prog, p)
	}
	if m.serial {
		return m.scheduleSerial()
	}
	return m.schedule()
}

// service executes one scheduled operation: the recorder hook (if any),
// the detailed memory-system model, and the issuing processor's
// completion bookkeeping. Identical in effect to the inline run-ahead
// path of Proc.runInline. The in-flight operation is registered in
// m.servicing so the abort paths can wake its (parked, list-less)
// processor if anything panics.
func (m *Machine) service(next *op) {
	m.servicing = next
	if m.recorder != nil {
		m.record(next)
	}
	if m.checker != nil {
		m.precheckOp(next)
	}
	m.execute(next)
	next.proc.lastDone = next.proc.clock
	if m.hooks {
		m.afterOp(next)
	}
	m.servicing = nil
}

// record passes o to the recorder, with the busy cycles its processor
// spent since its previous operation.
func (m *Machine) record(o *op) {
	gap := uint32(0)
	if o.at > o.proc.lastDone {
		gap = uint32(o.at - o.proc.lastDone)
	}
	m.recorder(OpRecord{
		CPU: o.proc.id, Addr: o.addr, Size: o.size,
		Kind: o.kind, RMW: o.rmw, Source: o.proc.src,
		Compute: gap,
	})
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
// been fully serviced: cancel polling, the crash-diagnostics ring, the
// touched-block invariant checks, fault injection, and the periodic full
// sweep. Checker failures panic with a *CoherenceViolation and flow
// through the normal abort machinery.
func (m *Machine) afterOp(o *op) {
	m.opCount++
	if m.cancel != nil && m.opCount&1023 == 0 {
		if err := m.cancel(); err != nil {
			panic(&CancelledError{Err: err})
		}
	}
	if m.ring != nil {
		m.ring[m.ringPos] = OpTrace{
			CPU: o.proc.id, At: o.at, Addr: o.addr, Size: o.size,
			Kind: o.kind, RMW: o.rmw,
		}
		m.ringPos++
		if m.ringPos == len(m.ring) {
			m.ringPos = 0
		}
		if m.ringLen < len(m.ring) {
			m.ringLen++
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

// finalCheck is the end-of-run whole-machine sweep under check.Full.
func (m *Machine) finalCheck() error {
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

// schedule is the default run-ahead handoff scheduler. Service order is
// identical to the serial scheduler — always the pending operation with
// the smallest (clock, CPU id), kept in a min-heap rather than rescanned
// linearly — but the per-access handshake with a central goroutine is
// gone. Run only collects every processor's first operation and services
// the winner; from then on the active processor goroutine drives the
// schedule itself (Proc.submitSlow, Machine.finish): it pushes its own
// operation, pops the global minimum, services it, and either continues
// (its own op won — zero context switches) or hands control directly to
// the winning processor (one switch, versus two through a scheduler
// goroutine). On top of that, every service grants the processor a
// run-ahead lease — the (clock, id) horizon of the best other pending
// operation — under which purely local hits are serviced inline with no
// heap traffic at all (Proc.runInline). Every step services the same op
// the serial scheduler would pick, so simulated cycle counts are
// bit-identical. Run waits on m.done for completion or error.
//
// The first scheduler step below runs on this (the Run) goroutine, so a
// panic while servicing it — a checker violation or an engine bug — is
// recovered here: the in-flight operation is re-parked and every program
// goroutine drained, keeping the error paths leak-free.
func (m *Machine) schedule() (err error) {
	running := len(m.procs)
	m.live = len(m.procs)
	m.h.a = make([]*op, 0, len(m.procs))
	defer func() {
		if r := recover(); r != nil {
			cpu := memory.NoNode
			if o := m.servicing; o != nil {
				cpu = o.proc.id
				m.servicing = nil
				m.h.push(o)
			}
			m.drain(m.live, m.h.a)
			err = recoveredError(cpu, r)
		}
	}()

	// Collect every processor's first operation (programs run their
	// prologues concurrently, exactly as under the serial scheduler).
	for running > 0 {
		ev := <-m.events
		running--
		if ev.err != nil {
			m.drain(m.live-1, m.h.a)
			return eventError(ev)
		}
		if ev.op == nil {
			m.live--
			continue
		}
		m.h.push(ev.op)
	}
	if m.live == 0 {
		if m.fs != nil {
			m.fs.Finalize()
		}
		return m.finalCheck()
	}

	// First step: service the winner and hand it the conch.
	next, ok := m.popServe()
	if !ok {
		m.drain(m.live, m.h.a)
		return fmt.Errorf("engine: CPU %d exceeded MaxCycles=%d (livelock guard)", next.proc.id, m.cfg.MaxCycles)
	}
	m.grantLease(next.proc)
	next.proc.resume <- struct{}{}

	return <-m.done
}

// popServe performs scheduler steps from the goroutine holding the
// conch: pop the globally earliest pending operation, guard, service it
// — and, when it is a declarative spin-wait whose predicate is still
// false, advance the spinner and re-arm the read without waking its
// goroutine, then keep going. It returns the first completed operation
// (ok=true; its processor is the one to resume), or the operation that
// tripped the MaxCycles livelock guard (ok=false; already re-parked in
// the heap so the abort paths find its processor).
//
// Iterating spins here is what makes contended barriers and locks cheap:
// each spin read is still a heap-ordered, fully modeled operation —
// byte-identical to the serial scheduler's — but a processor that spins N
// times costs one goroutine handoff instead of N.
func (m *Machine) popServe() (next *op, ok bool) {
	for {
		next = m.h.pop()
		if m.cfg.MaxCycles > 0 && next.at > m.cfg.MaxCycles {
			m.h.push(next)
			return next, false
		}
		m.service(next)
		if s := next.spin; s != nil && !s.stop() {
			next.proc.Compute(s.step())
			next.at = next.proc.clock
			m.h.push(next)
			continue
		}
		return next, true
	}
}

// grantLease grants p the run-ahead lease up to the best other pending
// op. With no other pending op the lease is unbounded (the id bound is
// above every real CPU id, so the tie case cannot reject).
func (m *Machine) grantLease(p *Proc) {
	if o := m.h.min(); o != nil {
		p.leaseAt, p.leaseID = o.at, o.proc.id
	} else {
		p.leaseAt, p.leaseID = ^uint64(0), memory.NodeID(m.cfg.Nodes)
	}
}

// finish retires a processor whose program returned while holding the
// conch: it either completes the run or performs one scheduler step to
// pass control on.
func (m *Machine) finish(p *Proc) {
	m.live--
	if m.live == 0 {
		if m.fs != nil {
			m.fs.Finalize()
		}
		m.done <- m.finalCheck()
		return
	}
	next, ok := m.popServe()
	if !ok {
		m.abortConch(p, fmt.Errorf("engine: CPU %d exceeded MaxCycles=%d (livelock guard)", next.proc.id, m.cfg.MaxCycles))
		return
	}
	m.grantLease(next.proc)
	next.proc.resume <- struct{}{}
}

// abortConch aborts the run from the goroutine holding the conch: every
// parked processor is woken in turn and panics out through Proc.submit
// (terminating spin loops), each reporting back before the next is woken
// so the one-goroutine-at-a-time discipline holds throughout; then the
// error is delivered to Run. Operations belonging to the caller itself
// are skipped — the caller exits (or panics abortProgram{notify: false})
// right after, without reporting. Run therefore leaks no goroutines on
// the handoff scheduler's error paths.
func (m *Machine) abortConch(self *Proc, err error) {
	m.aborted = true
	// An operation that was mid-service when the abort began has a parked
	// processor with no entry in the heap (submit popped it); wake it
	// first, unless it is the aborting goroutine's own operation.
	if o := m.servicing; o != nil {
		m.servicing = nil
		if o.proc != self {
			o.proc.resume <- struct{}{}
			<-m.events
		}
	}
	for {
		o := m.h.pop()
		if o == nil {
			break
		}
		if o.proc == self {
			continue
		}
		o.proc.resume <- struct{}{}
		<-m.events // the woken processor's terminal event
	}
	m.done <- err
}

// scheduleSerial is the per-access handshake scheduler: every memory
// operation of every processor is submitted over the events channel and
// serviced here, with the runnable set rescanned linearly. It is the
// reference implementation the run-ahead scheduler must match bit for
// bit, selected by SchedSerial for differential testing and debugging.
func (m *Machine) scheduleSerial() (err error) {
	running := len(m.procs)
	pending := make([]*op, m.cfg.Nodes) // indexed by CPU id
	live := len(m.procs)
	// Every service below runs on this (the Run) goroutine; recover
	// panics — checker violations, engine bugs — by re-parking the
	// in-flight operation and draining the program goroutines.
	defer func() {
		if r := recover(); r != nil {
			cpu := memory.NoNode
			if o := m.servicing; o != nil {
				cpu = o.proc.id
				m.servicing = nil
				pending[o.proc.id] = o
			}
			m.drain(live, pending)
			err = recoveredError(cpu, r)
		}
	}()

	for {
		for running > 0 {
			ev := <-m.events
			running--
			if ev.err != nil {
				m.drain(live-1, pending)
				return eventError(ev)
			}
			if ev.op == nil {
				live--
				continue
			}
			pending[ev.proc.id] = ev.op
		}
		if live == 0 {
			break
		}
		// Pick the pending op with the smallest clock.
		var next *op
		for _, o := range pending {
			if o == nil {
				continue
			}
			if next == nil || opBefore(o, next) {
				next = o
			}
		}
		if next == nil {
			return fmt.Errorf("engine: deadlock — %d live processors but none runnable", live)
		}
		if m.cfg.MaxCycles > 0 && next.at > m.cfg.MaxCycles {
			m.drain(live, pending)
			return fmt.Errorf("engine: CPU %d exceeded MaxCycles=%d (livelock guard)", next.proc.id, m.cfg.MaxCycles)
		}
		pending[next.proc.id] = nil
		m.service(next)
		running = 1
		next.proc.resume <- struct{}{}
	}

	if m.fs != nil {
		m.fs.Finalize()
	}
	return m.finalCheck()
}

// drain terminates every remaining program goroutine after a scheduler
// error, so Run's error paths leak nothing: parked processors (those with
// a pending operation, passed in; nil entries are skipped) are resumed,
// and every later submission is answered with an immediate resume.
// Proc.submit observes m.aborted after each resume and panics with
// abortProgram, which the program goroutine's recover converts into a
// final event. alive is the number of processors that have not yet sent
// their final event.
func (m *Machine) drain(alive int, parked []*op) {
	m.aborted = true
	for _, o := range parked {
		if o != nil {
			o.proc.resume <- struct{}{}
		}
	}
	for alive > 0 {
		ev := <-m.events
		if ev.op != nil {
			ev.proc.resume <- struct{}{}
			continue
		}
		alive--
	}
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
