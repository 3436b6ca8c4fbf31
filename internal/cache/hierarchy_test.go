package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"lsnuma/internal/memory"
)

func newHier(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(
		Config{Size: 128, Assoc: 1, BlockSize: 16, AccessTime: 1},
		Config{Size: 512, Assoc: 1, BlockSize: 16, AccessTime: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkInclusion verifies that every valid L1 line of h has a valid L2
// line with a compatible state, and returns the first violation.
func checkInclusion(h *Hierarchy) error {
	var err error
	h.l1.ForEach(func(b memory.Addr, s1 State) {
		s2 := h.l2.Probe(b)
		switch {
		case err != nil:
		case s2 == Invalid:
			err = fmt.Errorf("block %#x in L1 (%v) but not in L2", b, s1)
		case s1.Exclusive() && !s2.Exclusive():
			err = fmt.Errorf("block %#x exclusive in L1 (%v) but %v in L2", b, s1, s2)
		}
	})
	return err
}

func TestNewHierarchyValidation(t *testing.T) {
	l1 := Config{Size: 128, Assoc: 1, BlockSize: 16, AccessTime: 1}
	l2 := Config{Size: 512, Assoc: 1, BlockSize: 16, AccessTime: 10}
	if _, err := NewHierarchy(l1, l2); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := l2
	bad.BlockSize = 32
	if _, err := NewHierarchy(l1, bad); err == nil {
		t.Error("mismatched block sizes accepted")
	}
	small := l2
	small.Size = 64
	if _, err := NewHierarchy(l1, small); err == nil {
		t.Error("L1 larger than L2 accepted")
	}
	if _, err := NewHierarchy(Config{}, l2); err == nil {
		t.Error("invalid L1 accepted")
	}
	if _, err := NewHierarchy(l1, Config{}); err == nil {
		t.Error("invalid L2 accepted")
	}
}

func TestColdMissKinds(t *testing.T) {
	h := newHier(t)
	r := h.Access(0x100, memory.Load)
	if r.Action != GlobalRead || r.HitL1 || r.HitL2 {
		t.Fatalf("cold load = %+v", r)
	}
	if r.Latency != 11 { // L1 probe (1) + L2 probe (10)
		t.Fatalf("cold miss latency = %d, want 11", r.Latency)
	}
	r = h.Access(0x200, memory.Store)
	if r.Action != GlobalWriteMiss {
		t.Fatalf("cold store = %+v", r)
	}
}

func TestFillThenHit(t *testing.T) {
	h := newHier(t)
	if _, ev := h.Fill(0x100, Shared); ev {
		t.Fatal("unexpected eviction on first fill")
	}
	r := h.Access(0x100, memory.Load)
	if r.Action != NoGlobal || !r.HitL1 || r.Latency != 1 {
		t.Fatalf("post-fill load = %+v", r)
	}
}

func TestUpgradePath(t *testing.T) {
	h := newHier(t)
	h.Fill(0x100, Shared)
	r := h.Access(0x100, memory.Store)
	if r.Action != GlobalUpgrade {
		t.Fatalf("store to Shared = %+v", r)
	}
	// The copy must still be resident while the upgrade is pending.
	if h.State(0x100) != Shared {
		t.Fatal("Shared copy lost before upgrade completed")
	}
	h.Upgrade(0x100)
	if h.State(0x100) != Modified {
		t.Fatal("upgrade did not set Modified")
	}
	r = h.Access(0x100, memory.Store)
	if r.Action != NoGlobal {
		t.Fatalf("store after upgrade = %+v", r)
	}
	if err := checkInclusion(h); err != nil {
		t.Error(err)
	}
}

func TestLStempPromotionL1(t *testing.T) {
	h := newHier(t)
	h.Fill(0x100, LStemp)
	r := h.Access(0x100, memory.Store)
	if r.Action != NoGlobal || !r.LSWrite {
		t.Fatalf("store to LStemp = %+v", r)
	}
	if h.State(0x100) != Modified {
		t.Fatalf("state after LS promotion = %v", h.State(0x100))
	}
	if h.L1().Probe(0x100) != Modified {
		t.Fatalf("L1 state after LS promotion = %v", h.L1().Probe(0x100))
	}
}

func TestLStempPromotionL2Only(t *testing.T) {
	h := newHier(t)
	h.Fill(0x100, LStemp)
	// Push the block out of the (direct-mapped, 8-set) L1 by touching a
	// conflicting block.
	h.Fill(0x180, Shared) // same L1 set as 0x100 (128 B L1), different L2 set
	if h.L1().Probe(0x100) != Invalid {
		t.Fatal("test setup: block still in L1")
	}
	r := h.Access(0x100, memory.Store)
	if r.Action != NoGlobal || !r.LSWrite || !r.HitL2 {
		t.Fatalf("store to LStemp in L2 = %+v", r)
	}
	if h.State(0x100) != Modified {
		t.Fatal("L2 promotion failed")
	}
}

func TestLoadToLStempStaysClean(t *testing.T) {
	h := newHier(t)
	h.Fill(0x100, LStemp)
	r := h.Access(0x100, memory.Load)
	if r.Action != NoGlobal || r.LSWrite {
		t.Fatalf("load to LStemp = %+v", r)
	}
	if h.State(0x100) != LStemp {
		t.Fatalf("load disturbed LStemp: %v", h.State(0x100))
	}
}

func TestL1RefillFromL2(t *testing.T) {
	h := newHier(t)
	h.Fill(0x100, Shared)
	h.Fill(0x180, Shared) // evicts 0x100 from L1 only
	r := h.Access(0x100, memory.Load)
	if !r.HitL2 || r.HitL1 || r.Action != NoGlobal {
		t.Fatalf("L2 hit = %+v", r)
	}
	if r.Latency != 11 {
		t.Fatalf("L2 hit latency = %d, want 11", r.Latency)
	}
	// Now it must be back in L1.
	r = h.Access(0x100, memory.Load)
	if !r.HitL1 {
		t.Fatalf("refill did not populate L1: %+v", r)
	}
}

func TestFillEvictionInvalidatesL1(t *testing.T) {
	h := newHier(t)
	// L2 is 512 B direct mapped (32 sets): 0x100 and 0x300 conflict in L2
	// (set 16) and in L1 (128 B → set 0... both map somewhere; what matters
	// is the L2 conflict).
	h.Fill(0x100, Modified)
	v, ev := h.Fill(0x300, Shared)
	if !ev || v.Block != 0x100 || v.State != Modified {
		t.Fatalf("victim = %+v, %v", v, ev)
	}
	if h.L1().Probe(0x100) != Invalid {
		t.Fatal("inclusion: L1 still holds evicted block")
	}
	if err := checkInclusion(h); err != nil {
		t.Error(err)
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	h := newHier(t)
	h.Fill(0x100, Modified)
	if old := h.Downgrade(0x100); old != Modified {
		t.Fatalf("Downgrade returned %v", old)
	}
	if h.State(0x100) != Shared || h.L1().Probe(0x100) != Shared {
		t.Fatal("downgrade state wrong")
	}
	if old := h.Invalidate(0x100); old != Shared {
		t.Fatalf("Invalidate returned %v", old)
	}
	if h.State(0x100) != Invalid || h.L1().Probe(0x100) != Invalid {
		t.Fatal("invalidate left residue")
	}
	if old := h.Downgrade(0x100); old != Invalid {
		t.Fatalf("Downgrade of absent block returned %v", old)
	}
}

// TestHierarchyInclusionProperty drives a random access stream through the
// hierarchy, simulating the engine's fill/upgrade responses, and checks the
// inclusion invariant after every step.
func TestHierarchyInclusionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h, err := NewHierarchy(
			Config{Size: 64, Assoc: 1, BlockSize: 16, AccessTime: 1},
			Config{Size: 256, Assoc: 2, BlockSize: 16, AccessTime: 10},
		)
		if err != nil {
			return false
		}
		for _, op := range ops {
			block := memory.Addr(op&0x1ff) &^ 15
			kind := memory.Load
			if op&0x8000 != 0 {
				kind = memory.Store
			}
			switch r := h.Access(block, kind); r.Action {
			case GlobalRead:
				st := Shared
				if op&0x4000 != 0 {
					st = LStemp
				}
				h.Fill(block, st)
			case GlobalWriteMiss:
				h.Fill(block, Modified)
			case GlobalUpgrade:
				h.Upgrade(block)
			}
			if err := checkInclusion(h); err != nil {
				t.Logf("inclusion violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFillResidentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fill of resident block did not panic")
		}
	}()
	h := newHier(t)
	h.Fill(0x100, Shared)
	h.Fill(0x100, Shared)
}

func TestGlobalActionString(t *testing.T) {
	for g, want := range map[GlobalAction]string{
		NoGlobal: "none", GlobalRead: "read", GlobalUpgrade: "upgrade", GlobalWriteMiss: "write-miss",
	} {
		if g.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint8(g), g.String(), want)
		}
	}
}
