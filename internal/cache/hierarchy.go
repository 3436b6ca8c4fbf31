package cache

import (
	"fmt"

	"lsnuma/internal/memory"
)

// GlobalAction classifies what global coherence action, if any, an access
// needs after consulting the local hierarchy.
type GlobalAction uint8

const (
	// NoGlobal means the access completes locally.
	NoGlobal GlobalAction = iota
	// GlobalRead means a read miss requiring a read request to the home.
	GlobalRead
	// GlobalUpgrade means a write hit on a Shared copy requiring an
	// ownership acquisition (the copy stays valid while upgrading).
	GlobalUpgrade
	// GlobalWriteMiss means a write miss requiring a read-exclusive
	// request to the home.
	GlobalWriteMiss
)

func (g GlobalAction) String() string {
	switch g {
	case NoGlobal:
		return "none"
	case GlobalRead:
		return "read"
	case GlobalUpgrade:
		return "upgrade"
	case GlobalWriteMiss:
		return "write-miss"
	default:
		return fmt.Sprintf("GlobalAction(%d)", uint8(g))
	}
}

// AccessResult reports how the hierarchy handled a local access attempt.
type AccessResult struct {
	Action  GlobalAction
	State   State // effective (L2) state before the access
	HitL1   bool
	HitL2   bool
	Latency int // local latency charged so far (L1 probe, L2 probe/refill)
	// LSWrite is set when a store was satisfied locally by promoting an
	// LStemp copy to Modified: the ownership acquisition the LS (or
	// migratory) optimization eliminated.
	LSWrite bool
}

// Hierarchy is a two-level inclusive cache hierarchy for one node. The L2
// holds the authoritative coherence state; the L1 mirrors a subset of it.
type Hierarchy struct {
	l1, l2 *Cache
}

// NewHierarchy builds the hierarchy. Both levels must share a block size,
// and L1 must not be larger than L2 (inclusion).
func NewHierarchy(l1cfg, l2cfg Config) (*Hierarchy, error) {
	if err := l1cfg.Validate(); err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	if err := l2cfg.Validate(); err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	if l1cfg.BlockSize != l2cfg.BlockSize {
		return nil, fmt.Errorf("cache: L1 block size %d != L2 block size %d",
			l1cfg.BlockSize, l2cfg.BlockSize)
	}
	if l1cfg.Size > l2cfg.Size {
		return nil, fmt.Errorf("cache: L1 size %d exceeds L2 size %d (inclusion)",
			l1cfg.Size, l2cfg.Size)
	}
	return &Hierarchy{l1: New(l1cfg), l2: New(l2cfg)}, nil
}

// L1 returns the first-level cache, for inspection.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the second-level cache, for inspection.
func (h *Hierarchy) L2() *Cache { return h.l2 }

func (h *Hierarchy) l1Time() int { return h.l1.cfg.AccessTime }
func (h *Hierarchy) l2Time() int { return h.l2.cfg.AccessTime }

// Access attempts to satisfy a load or store locally. It updates cache
// state for everything that can be decided locally (L1 refills from L2,
// LStemp promotion on store) and reports the required global action
// otherwise. For GlobalUpgrade the Shared copy remains resident; for misses
// nothing is allocated until Fill.
func (h *Hierarchy) Access(block memory.Addr, kind memory.Kind) AccessResult {
	res := AccessResult{Latency: h.l1Time()}
	s1 := h.l1.Lookup(block)
	if s1 != Invalid {
		res.HitL1 = true
		res.State = h.l2.Probe(block)
		if res.State == Invalid {
			panic(fmt.Sprintf("cache: inclusion violated for block %#x (L1 %v, L2 invalid)", block, s1))
		}
		switch {
		case kind == memory.Load:
			return res
		case s1 == Modified:
			return res
		case s1 == LStemp:
			// The predicted store: promote locally, no global action.
			h.l1.SetState(block, Modified)
			h.l2.SetState(block, Modified)
			res.LSWrite = true
			return res
		default: // store to Shared
			res.Action = GlobalUpgrade
			return res
		}
	}

	res.Latency += h.l2Time()
	s2 := h.l2.Lookup(block)
	res.State = s2
	if s2 == Invalid {
		if kind == memory.Load {
			res.Action = GlobalRead
		} else {
			res.Action = GlobalWriteMiss
		}
		return res
	}
	res.HitL2 = true
	switch {
	case kind == memory.Load:
		h.refillL1(block, s2)
		return res
	case s2 == Modified:
		h.refillL1(block, Modified)
		return res
	case s2 == LStemp:
		h.l2.SetState(block, Modified)
		h.refillL1(block, Modified)
		res.LSWrite = true
		return res
	default: // store to Shared in L2
		res.Action = GlobalUpgrade
		return res
	}
}

// refillL1 brings a block into L1 mirroring state s. An L1 victim needs no
// coherence action (its authoritative copy stays in L2); a Modified L1
// victim's data conceptually writes back into L2, which already holds the
// Modified state under our mirroring scheme.
func (h *Hierarchy) refillL1(block memory.Addr, s State) {
	h.l1.Insert(block, s)
}

// Fill installs a block delivered by the global protocol into both levels
// and returns the L2 victim, if any, which the caller must write back (if
// Modified) or announce as replaced (Shared/LStemp) to its home. The L1
// shadow of the victim is invalidated to preserve inclusion.
func (h *Hierarchy) Fill(block memory.Addr, s State) (Victim, bool) {
	if cur := h.l2.Probe(block); cur != Invalid {
		panic(fmt.Sprintf("cache: Fill of resident block %#x (state %v)", block, cur))
	}
	v, evicted := h.l2.Insert(block, s)
	if evicted {
		h.l1.Invalidate(v.Block)
	}
	if h.l1.Probe(block) != Invalid {
		panic(fmt.Sprintf("cache: L1 holds block %#x missing from L2", block))
	}
	h.l1.Insert(block, s)
	return v, evicted
}

// Upgrade completes an ownership acquisition: the Shared copy becomes
// Modified in both levels. It panics if the copy vanished (the engine must
// re-issue the access as a write miss if the copy was invalidated while
// the upgrade was pending; with blocking SC processors this cannot happen).
func (h *Hierarchy) Upgrade(block memory.Addr) {
	if !h.l2.SetState(block, Modified) {
		panic(fmt.Sprintf("cache: Upgrade of non-resident block %#x", block))
	}
	h.l1.SetState(block, Modified) // may be absent from L1; that is fine
	if h.l1.Probe(block) == Invalid {
		h.l1.Insert(block, Modified)
	}
}

// Invalidate removes the block from both levels and returns the previous
// authoritative (L2) state.
func (h *Hierarchy) Invalidate(block memory.Addr) State {
	h.l1.Invalidate(block)
	return h.l2.Invalidate(block)
}

// Downgrade moves an exclusive copy to Shared in both levels (e.g. the
// previous owner on a read-on-dirty) and returns the previous state.
func (h *Hierarchy) Downgrade(block memory.Addr) State {
	old := h.l2.Probe(block)
	if old == Invalid {
		return Invalid
	}
	h.l2.SetState(block, Shared)
	h.l1.SetState(block, Shared)
	return old
}

// State returns the authoritative coherence state of block.
func (h *Hierarchy) State(block memory.Addr) State {
	return h.l2.Probe(block)
}

// ForceState overwrites the state of a resident block in both levels
// without any coherence action, and reports whether the block was
// resident. This is a fault-injection hook (internal/fault): it
// deliberately creates the silent corruption — a stale exclusive copy, a
// leaked LStemp grant — that the online invariant checker must detect.
// Never call it from protocol code.
func (h *Hierarchy) ForceState(block memory.Addr, s State) bool {
	if !h.l2.SetState(block, s) {
		return false
	}
	h.l1.SetState(block, s) // may be absent from L1; that is fine
	return true
}
