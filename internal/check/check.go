// Package check implements the machine-wide coherence invariants of the
// simulated multiprocessor as a reusable checker, shared by the exhaustive
// model-check tests (internal/engine/modelcheck_test.go) and the engine's
// online checking mode (engine.Config.CheckLevel) so the two cannot drift.
//
// The invariants are the classic directory-protocol safety properties,
// extended for the paper's LS protocol (whose exclusive-on-read LStemp
// state is exactly where subtle coherence bugs hide):
//
//   - single-writer / multiple-reader (SWMR): an exclusive copy
//     (Modified or LStemp) is never co-resident with any other copy;
//   - home-state legality: every directory entry satisfies its structural
//     invariant (directory.Entry.CheckInvariant);
//   - directory exactness: the home's presence information matches the
//     caches exactly, including the state mapping — a Modified copy
//     requires a Dirty or Load-Store home entry owned by its holder (the
//     Excl case is the LS protocol's silent promotion), an LStemp copy
//     requires a Load-Store entry owned by its holder, and a Shared copy
//     requires a Shared entry listing its holder;
//   - no ghosts: the directory never claims a holder whose cache does not
//     have the block;
//   - inclusion: an L1 copy always has a compatible L2 copy behind it.
//
// A violation is reported as a *CoherenceViolation naming the invariant,
// the block, the cycle, and the full cache + directory state of the block,
// so a corruption is localized the moment it becomes observable instead of
// surfacing later as a cryptic engine panic or silently skewed results.
package check

import (
	"fmt"
	"strings"

	"lsnuma/internal/cache"
	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
)

// Level selects how much online checking the engine performs.
type Level uint8

const (
	// Off disables online checking entirely (near-zero overhead: one nil
	// comparison per serviced operation).
	Off Level = iota
	// Touched validates every block an operation touches — the accessed
	// block(s) before the transaction and every block the transaction
	// modified (including replacement victims) after it.
	Touched
	// Full is Touched plus a whole-machine sweep every CheckInterval
	// serviced operations and once at the end of the run.
	Full
)

func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Touched:
		return "touched"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// ParseLevel converts a level name ("off", "touched", "full"; "" means
// off) to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "touched":
		return Touched, nil
	case "full":
		return Full, nil
	default:
		return Off, fmt.Errorf("check: unknown level %q (want off, touched, full)", s)
	}
}

// CoherenceViolation is a structured invariant failure: which invariant
// broke, on which block, at which cycle, and the complete cache and
// directory state of the block at the moment of detection.
type CoherenceViolation struct {
	// Invariant names the broken invariant: "swmr", "home-state",
	// "directory-exactness", "directory-ghost" or "inclusion".
	Invariant string
	// Block is the block-aligned address of the offending block.
	Block memory.Addr
	// Cycle is the issuing processor's clock when the violation was
	// detected (zero for post-run or test-driven checks).
	Cycle uint64
	// Detail describes what specifically disagreed.
	Detail string
	// State is the full snapshot: per-CPU cache states and the directory
	// entry of the block.
	State string
}

func (v *CoherenceViolation) Error() string {
	return fmt.Sprintf("coherence: %s invariant violated for block %#x at cycle %d: %s [%s]",
		v.Invariant, v.Block, v.Cycle, v.Detail, v.State)
}

// Checker validates the invariants over one machine's directory and cache
// hierarchies. All checks are side-effect free: probes never touch LRU
// state and missing directory entries are never created, so enabling the
// checker cannot perturb a simulation. A Checker is not safe for
// concurrent use.
type Checker struct {
	layout memory.Layout
	dir    *directory.Directory
	caches []*cache.Hierarchy
	states []cache.State // CheckBlock's per-CPU L2 states of its block
}

// New builds a checker over the given directory and per-node hierarchies
// (index = node ID).
func New(layout memory.Layout, dir *directory.Directory, caches []*cache.Hierarchy) *Checker {
	return &Checker{layout: layout, dir: dir, caches: caches, states: make([]cache.State, len(caches))}
}

// violation builds a fully described CoherenceViolation for block.
func (c *Checker) violation(invariant string, block memory.Addr, cycle uint64, format string, args ...any) *CoherenceViolation {
	return &CoherenceViolation{
		Invariant: invariant,
		Block:     c.layout.Block(block),
		Cycle:     cycle,
		Detail:    fmt.Sprintf(format, args...),
		State:     c.describe(block),
	}
}

// describe renders the complete cache + directory state of block.
func (c *Checker) describe(block memory.Addr) string {
	var b strings.Builder
	b.WriteString("caches:")
	any := false
	for i, h := range c.caches {
		s2 := h.State(block)
		l1 := h.L1().Probe(block)
		if s2 == cache.Invalid && l1 == cache.Invalid {
			continue
		}
		any = true
		fmt.Fprintf(&b, " cpu%d=%v", i, s2)
		if l1 != cache.Invalid {
			fmt.Fprintf(&b, "(L1=%v)", l1)
		}
	}
	if !any {
		b.WriteString(" none")
	}
	if e, ok := c.dir.Lookup(block); ok {
		fmt.Fprintf(&b, "; home: %v owner=%d sharers=%v LS=%v LR=%d",
			e.State, e.Owner, e.Sharers, e.LS, e.LR)
	} else {
		b.WriteString("; home: no entry")
	}
	return b.String()
}

// exact reports whether home entry e maps a copy in state s held by cpu
// n: a Modified copy needs a Dirty or Load-Store home owned by n (the
// Load-Store case is the LS protocol's silent promotion), an LStemp copy
// a Load-Store home owned by n, and a Shared copy a Shared home listing n.
func exact(s cache.State, e *directory.Entry, n memory.NodeID) bool {
	switch s {
	case cache.Modified:
		return (e.State == directory.Dirty || e.State == directory.Excl) && e.Owner == n
	case cache.LStemp:
		return e.State == directory.Excl && e.Owner == n
	case cache.Shared:
		return e.State == directory.Shared && e.Sharers.Has(n)
	}
	return true
}

// CheckBlock validates every invariant for the single block containing
// addr. It allocates nothing on the success path.
func (c *Checker) CheckBlock(addr memory.Addr, cycle uint64) error {
	block := c.layout.Block(addr)
	var copies, excl int
	for i, h := range c.caches {
		s2 := h.State(block)
		c.states[i] = s2
		l1 := h.L1().Probe(block)
		if s2 == cache.Invalid {
			if l1 != cache.Invalid {
				return c.violation("inclusion", block, cycle,
					"cpu %d holds the block in L1 (%v) but not in L2", i, l1)
			}
			continue
		}
		if l1 != cache.Invalid && l1.Exclusive() && !s2.Exclusive() {
			return c.violation("inclusion", block, cycle,
				"cpu %d holds the block exclusive in L1 (%v) but %v in L2", i, l1, s2)
		}
		copies++
		if s2.Exclusive() {
			excl++
		}
	}
	if excl > 0 && copies > 1 {
		return c.violation("swmr", block, cycle,
			"%d copies co-resident with %d exclusive", copies, excl)
	}

	e, ok := c.dir.Lookup(block)
	if !ok {
		if copies > 0 {
			return c.violation("directory-exactness", block, cycle,
				"block cached by %d cpus but the directory has no entry", copies)
		}
		return nil
	}
	if err := e.CheckInvariant(); err != nil {
		return c.violation("home-state", block, cycle, "%v", err)
	}
	for i, s := range c.states {
		if exact(s, e, memory.NodeID(i)) {
			continue
		}
		if s == cache.Shared {
			return c.violation("directory-exactness", block, cycle,
				"cpu %d holds Shared but home is %v with sharers %v", i, e.State, e.Sharers)
		}
		held := "Modified"
		if s == cache.LStemp {
			held = "LStemp"
		}
		return c.violation("directory-exactness", block, cycle,
			"cpu %d holds %s but home is %v with owner %d", i, held, e.State, e.Owner)
	}
	var ghost memory.NodeID = memory.NoNode
	e.Holders().ForEach(func(n memory.NodeID) {
		if c.states[n] == cache.Invalid && ghost == memory.NoNode {
			ghost = n
		}
	})
	if ghost != memory.NoNode {
		return c.violation("directory-ghost", block, cycle,
			"directory claims cpu %d holds the block but its cache is invalid", ghost)
	}
	return nil
}

// CheckAll sweeps the whole machine in one pass over its state: each L1
// line against its own L2 (inclusion), each L2 line against its home
// entry (exactness), and each directory entry against its structural
// invariant and the caches of the holders it names (no ghosts). Exactness
// of every copy implies SWMR, so the pass flags exactly the blocks
// CheckBlock fails; it reports the lowest-addressed one with CheckBlock's
// diagnosis. It allocates nothing on the success path.
func (c *Checker) CheckAll(cycle uint64) error {
	var bad memory.Addr
	found := false
	flag := func(b memory.Addr) {
		if !found || b < bad {
			bad, found = b, true
		}
	}
	for i, h := range c.caches {
		l2 := h.L2()
		h.L1().ForEach(func(b memory.Addr, s1 cache.State) {
			if s2 := l2.Probe(b); s2 == cache.Invalid || s1.Exclusive() && !s2.Exclusive() {
				flag(b)
			}
		})
		n := memory.NodeID(i)
		l2.ForEach(func(b memory.Addr, s cache.State) {
			if e, ok := c.dir.Lookup(b); !ok || !exact(s, e, n) {
				flag(b)
			}
		})
	}
	c.dir.ForEach(func(idx uint64, e *directory.Entry) {
		b := memory.Addr(idx * c.layout.BlockSize)
		if e.CheckInvariant() != nil {
			flag(b)
			return
		}
		e.Holders().ForEach(func(n memory.NodeID) {
			if c.caches[n].State(b) == cache.Invalid {
				flag(b)
			}
		})
	})
	if !found {
		return nil
	}
	return c.CheckBlock(bad, cycle)
}
