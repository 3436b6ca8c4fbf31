package engine

import (
	"fmt"

	"lsnuma/internal/memory"
)

// Synchronization primitives built from simulated loads, stores and atomic
// read-modify-writes, so they exhibit the real coherence behaviour the
// paper studies: test-and-set is a load-store sequence (SPARC ldstub),
// spinning reads hit the local cache until the holder's release
// invalidates the spinners' copies, and contended locks migrate between
// processors.
//
// The Go-side fields (held, count, sense...) are safe to touch without
// host synchronization: the engine's scheduler runs exactly one program
// goroutine at a time, and program code between two simulated memory
// operations is atomic with respect to all other simulated processors.

// waiters is the list of spinners asleep on one Lock or Barrier: under
// the run-ahead scheduler a spinner whose copy of the spin word sits in
// its own L1 leaves the scheduler heap until the variable changes
// (Proc.wakeWaiters) or it loses the copy (Machine.loseCopy).
type waiters []*Proc

// Lock is a test-and-test-and-set spin lock occupying one simulated word.
type Lock struct {
	addr    memory.Addr
	held    bool
	holder  memory.NodeID
	backoff int
	waiters waiters // spinners asleep until Release

	// Acquisitions and Contended count lock usage for workload reports
	// (e.g. the OLTP critical-section statistics of §5.4).
	Acquisitions uint64
	Contended    uint64
}

// NewLock allocates a lock word from the allocator under the given region
// name. Locks allocated consecutively may share a cache block — exactly
// like adjacent pthread mutexes in the paper's workload; pad with
// a.AllocBlocks if that is not wanted.
func NewLock(a *memory.Allocator, name string) *Lock {
	return &Lock{addr: a.Alloc(name, memory.WordSize, 0), holder: memory.NoNode, backoff: 4}
}

// Addr returns the lock word's simulated address.
func (l *Lock) Addr() memory.Addr { return l.addr }

// TryAcquire attempts a single test-and-set and reports success.
func (l *Lock) TryAcquire(p *Proc) bool {
	p.RMW(l.addr)
	if l.held {
		return false
	}
	l.held = true
	l.holder = p.ID()
	l.Acquisitions++
	return true
}

// Acquire spins until the lock is held by p. The spin reads the lock word
// (cache-resident until invalidated by the releaser) with randomized
// exponential backoff — deterministic per processor, like the
// test-and-test-and-set loops in real spin-lock implementations. The
// jitter matters: in a deterministic simulator two contenders with
// identical timing would otherwise race for the word in lockstep and one
// could starve forever.
func (l *Lock) Acquire(p *Proc) {
	contended := false
	backoff := l.backoff
	for {
		if l.TryAcquire(p) {
			if contended {
				l.Contended++
			}
			return
		}
		contended = true
		p.spinRead(l.addr, &l.waiters,
			func() bool { return !l.held },
			func() int {
				n := backoff + p.Rand().Intn(backoff)
				if backoff < 1024 {
					backoff *= 2
				}
				return n
			})
		p.Compute(p.Rand().Intn(16)) // desynchronize the test-and-set
	}
}

// Release frees the lock. It panics if p does not hold it.
func (l *Lock) Release(p *Proc) {
	if !l.held || l.holder != p.ID() {
		panic(fmt.Sprintf("engine: CPU %d releasing lock %#x held by %d (held=%v)",
			p.ID(), l.addr, l.holder, l.held))
	}
	l.held = false
	l.holder = memory.NoNode
	p.wakeWaiters(&l.waiters)
	p.Write(l.addr)
}

// Barrier is a sense-reversing centralized barrier.
type Barrier struct {
	countAddr  memory.Addr
	senseAddr  memory.Addr
	parties    int
	count      int
	sense      bool
	localSense []bool
	waiters    waiters // spinners asleep until the sense flips
}

// NewBarrier allocates barrier state for the given number of parties.
func NewBarrier(a *memory.Allocator, name string, parties, cpus int) *Barrier {
	return &Barrier{
		countAddr:  a.Alloc(name, memory.WordSize, 0),
		senseAddr:  a.Alloc(name, memory.WordSize, 0),
		parties:    parties,
		localSense: make([]bool, cpus),
	}
}

// Wait blocks (in simulated time) until all parties have arrived.
func (b *Barrier) Wait(p *Proc) {
	id := p.ID()
	ls := !b.localSense[id]
	b.localSense[id] = ls

	p.RMW(b.countAddr) // fetch-and-increment the arrival counter
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.sense = ls
		p.wakeWaiters(&b.waiters)
		p.Write(b.senseAddr) // release: invalidates all spinners
		return
	}
	p.spinRead(b.senseAddr, &b.waiters,
		func() bool { return b.sense == ls },
		func() int { return 8 })
}
