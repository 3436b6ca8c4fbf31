package resultcache

import "sync"

// Flight deduplicates concurrent computations of the same key in one
// process: while a computation for key is in flight, further Do calls
// with that key wait for it and share its value instead of computing
// again. This is the stampede protection in front of the persistent
// cache — N clients asking for the same cold point pay for one
// simulation, not N — and it composes with the on-disk store: the
// flight leader consults the store, computes on a miss, and every
// follower inherits whichever outcome the leader produced.
//
// Unlike the persistent cache, a Flight remembers nothing: once the
// leader returns and the followers are released, the key is forgotten.
// Cross-call memoization is the store's job.
//
// The zero Flight is ready to use. All methods are safe for concurrent
// use.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

// flightCall is one in-flight computation: done closes when the leader
// finishes (val is valid only after that), and panicked records a
// leader that died so followers fail loudly instead of hanging or
// silently inheriting a zero value.
type flightCall[V any] struct {
	done     chan struct{}
	val      V
	panicked bool
}

// Do returns fn's value for key, running fn only if no other call for
// key is already in flight; otherwise it blocks until the in-flight
// leader finishes and returns the leader's value with shared=true.
//
// Do does not accept a context: a follower waits for its leader
// unconditionally. Callers that bound their computations (deadlines,
// cancellation) bound the leader's fn, which releases the followers
// with whatever outcome the leader's bound produced. Identical keys need
// not mean identical bounds, so a follower can wait past its own
// deadline for a leader that will succeed, and a caller whose leader
// was cancelled while it was not decides itself whether to call Do
// again.
//
// If the leader's fn panics, the panic propagates on the leader and
// every follower panics too (with a note pointing at the shared key):
// a shared computation has no private outcome to fall back on.
func (f *Flight[V]) Do(key string, fn func() V) (val V, shared bool) {
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[string]*flightCall[V])
	}
	if c, ok := f.m[key]; ok {
		f.mu.Unlock()
		<-c.done
		if c.panicked {
			panic("resultcache: single-flight leader for key " + key + " panicked")
		}
		return c.val, true
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.m[key] = c
	f.mu.Unlock()

	normal := false
	defer func() {
		c.panicked = !normal
		f.mu.Lock()
		delete(f.m, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.val = fn()
	normal = true
	return c.val, false
}

// Inflight reports the number of keys currently being computed (for
// metrics and tests).
func (f *Flight[V]) Inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}
