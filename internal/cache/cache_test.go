package cache

import (
	"testing"
	"testing/quick"

	"lsnuma/internal/memory"
)

func cfg(size uint64, assoc int, block uint64) Config {
	return Config{Size: size, Assoc: assoc, BlockSize: block, AccessTime: 1}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		c  Config
		ok bool
	}{
		{cfg(4096, 1, 16), true},
		{cfg(4096, 2, 16), true},
		{cfg(64*1024, 1, 16), true},
		{cfg(4096, 0, 16), false},
		{cfg(4096, 1, 24), false},
		{cfg(4000, 1, 16), false},
		{cfg(0, 1, 16), false},
		{cfg(48, 3, 16), true},   // 1 set, 3-way
		{cfg(80, 3, 16), false},  // not divisible by block×assoc
		{cfg(144, 3, 16), false}, // 3 sets, not a power of two
		{Config{Size: 4096, Assoc: 1, BlockSize: 16, AccessTime: -1}, false},
	}
	for i, c := range cases {
		if err := c.c.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestInsertLookup(t *testing.T) {
	c := New(cfg(256, 2, 16)) // 8 sets, 2-way
	if s := c.Lookup(0x100); s != Invalid {
		t.Fatalf("empty cache Lookup = %v", s)
	}
	if _, ev := c.Insert(0x100, Shared); ev {
		t.Fatal("unexpected eviction in empty cache")
	}
	if s := c.Lookup(0x100); s != Shared {
		t.Fatalf("Lookup after insert = %v", s)
	}
	if s := c.Probe(0x100); s != Shared {
		t.Fatalf("Probe = %v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(cfg(32, 2, 16)) // 1 set, 2-way
	c.Insert(0x000, Shared)
	c.Insert(0x010, Shared)
	c.Lookup(0x000) // touch block 0 → block 0x010 becomes LRU
	v, ev := c.Insert(0x020, Shared)
	if !ev || v.Block != 0x010 {
		t.Fatalf("eviction = %+v, %v; want block 0x010", v, ev)
	}
	if c.Probe(0x000) != Shared || c.Probe(0x020) != Shared {
		t.Fatal("survivors wrong")
	}
}

func TestVictimStatePreserved(t *testing.T) {
	c := New(cfg(16, 1, 16)) // 1 set, direct mapped
	c.Insert(0x000, Modified)
	v, ev := c.Insert(0x100, Shared)
	if !ev || v.State != Modified || v.Block != 0 {
		t.Fatalf("victim = %+v, %v", v, ev)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(cfg(64, 1, 16)) // 4 sets
	// 0x000 and 0x040 map to the same set; 0x010 does not.
	c.Insert(0x000, Shared)
	c.Insert(0x010, Shared)
	v, ev := c.Insert(0x040, Shared)
	if !ev || v.Block != 0x000 {
		t.Fatalf("conflict victim = %+v, %v", v, ev)
	}
	if c.Probe(0x010) != Shared {
		t.Fatal("non-conflicting block evicted")
	}
}

func TestSetStateInvalidate(t *testing.T) {
	c := New(cfg(64, 2, 16))
	c.Insert(0x20, Shared)
	if !c.SetState(0x20, Modified) {
		t.Fatal("SetState on resident failed")
	}
	if c.Probe(0x20) != Modified {
		t.Fatal("state not updated")
	}
	if c.SetState(0x30, Shared) {
		t.Fatal("SetState on absent succeeded")
	}
	if old := c.Invalidate(0x20); old != Modified {
		t.Fatalf("Invalidate returned %v", old)
	}
	if c.Probe(0x20) != Invalid {
		t.Fatal("block still resident after invalidate")
	}
	if old := c.Invalidate(0x20); old != Invalid {
		t.Fatalf("double Invalidate returned %v", old)
	}
}

func TestInsertResidentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of resident block did not panic")
		}
	}()
	c := New(cfg(64, 2, 16))
	c.Insert(0x20, Shared)
	c.Insert(0x20, Modified)
}

// resident collects c's blocks through ForEach.
func resident(c *Cache) []Victim {
	var out []Victim
	c.ForEach(func(b memory.Addr, s State) { out = append(out, Victim{Block: b, State: s}) })
	return out
}

func TestForEach(t *testing.T) {
	c := New(cfg(32, 2, 16)) // 1 set, 2-way
	c.Insert(0x00, Shared)
	c.Insert(0x10, Modified)
	got := resident(c)
	if len(got) != 2 || got[0] != (Victim{0x00, Shared}) || got[1] != (Victim{0x10, Modified}) {
		t.Fatalf("ForEach visited %+v", got)
	}
	// The walk leaves LRU order alone: block 0 is still the victim.
	if v, ev := c.Insert(0x20, Shared); !ev || v.Block != 0x00 {
		t.Fatalf("eviction after ForEach = %+v, %v; want block 0", v, ev)
	}
	c.Invalidate(0x10)
	if got := resident(c); len(got) != 1 || got[0].Block != 0x20 {
		t.Fatalf("ForEach after invalidate visited %+v", got)
	}
}

// TestCacheNeverExceedsCapacity drives random insert/invalidate traffic and
// checks structural invariants: residency never exceeds capacity, each set
// holds at most assoc blocks, and a block is never resident twice.
func TestCacheNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(cfg(256, 2, 16)) // 16 lines
		for _, op := range ops {
			block := memory.Addr(op&0x3ff) &^ 15
			switch {
			case op&0x8000 != 0:
				c.Invalidate(block)
			default:
				if c.Probe(block) == Invalid {
					c.Insert(block, Shared)
				}
			}
		}
		res := resident(c)
		if len(res) > 16 {
			return false
		}
		seen := make(map[memory.Addr]bool)
		for _, v := range res {
			if seen[v.Block] {
				return false
			}
			seen[v.Block] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStateHelpers(t *testing.T) {
	if !Modified.Exclusive() || !LStemp.Exclusive() {
		t.Error("Modified/LStemp should be exclusive")
	}
	if Shared.Exclusive() || Invalid.Exclusive() {
		t.Error("Shared/Invalid should not be exclusive")
	}
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Modified: "M", LStemp: "LStemp"} {
		if s.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(s), s.String(), want)
		}
	}
}
