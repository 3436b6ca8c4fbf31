package check

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
)

// harness is a hand-built 4-node machine state: directory plus per-node
// cache hierarchies, with no engine attached, so tests can construct
// arbitrary (including illegal) global states directly.
type harness struct {
	layout  memory.Layout
	dir     *directory.Directory
	caches  []*cache.Hierarchy
	checker *Checker
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	layout, err := memory.NewLayout(4096, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := directory.New(layout, nil)
	caches := make([]*cache.Hierarchy, 4)
	for i := range caches {
		h, err := cache.NewHierarchy(
			cache.Config{Size: 1024, Assoc: 1, BlockSize: 16, AccessTime: 1},
			cache.Config{Size: 4096, Assoc: 1, BlockSize: 16, AccessTime: 10})
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = h
	}
	return &harness{layout: layout, dir: dir, caches: caches,
		checker: New(layout, dir, caches)}
}

// expectViolation asserts CheckBlock reports the named invariant.
func (h *harness) expectViolation(t *testing.T, block memory.Addr, invariant string) *CoherenceViolation {
	t.Helper()
	err := h.checker.CheckBlock(block, 42)
	if err == nil {
		t.Fatalf("CheckBlock(%#x): no violation, want %q", block, invariant)
	}
	v, ok := err.(*CoherenceViolation)
	if !ok {
		t.Fatalf("CheckBlock(%#x): error type %T, want *CoherenceViolation", block, err)
	}
	if v.Invariant != invariant {
		t.Fatalf("CheckBlock(%#x): invariant %q, want %q (%v)", block, v.Invariant, invariant, v)
	}
	return v
}

func TestCleanStatesPass(t *testing.T) {
	h := newHarness(t)
	const block = memory.Addr(0x100)

	// Empty machine.
	if err := h.checker.CheckAll(0); err != nil {
		t.Fatalf("empty machine: %v", err)
	}

	// Two sharers, exact directory.
	h.caches[0].Fill(block, cache.Shared)
	h.caches[2].Fill(block, cache.Shared)
	e := h.dir.Entry(block)
	e.State = directory.Shared
	e.Sharers.Add(0)
	e.Sharers.Add(2)
	if err := h.checker.CheckAll(0); err != nil {
		t.Fatalf("shared state: %v", err)
	}

	// One Modified owner under a Dirty home.
	const owned = memory.Addr(0x200)
	h.caches[1].Fill(owned, cache.Modified)
	oe := h.dir.Entry(owned)
	oe.State = directory.Dirty
	oe.Owner = 1
	if err := h.checker.CheckAll(0); err != nil {
		t.Fatalf("owned state: %v", err)
	}

	// The LS protocol's silent promotion: a Modified copy while the home
	// still says Load-Store (Excl) is legal.
	oe.State = directory.Excl
	if err := h.checker.CheckBlock(owned, 0); err != nil {
		t.Fatalf("silent promotion: %v", err)
	}

	// An LStemp copy under a Load-Store home.
	const ls = memory.Addr(0x300)
	h.caches[3].Fill(ls, cache.LStemp)
	le := h.dir.Entry(ls)
	le.State = directory.Excl
	le.Owner = 3
	if err := h.checker.CheckAll(0); err != nil {
		t.Fatalf("LStemp state: %v", err)
	}
}

func TestSWMRViolation(t *testing.T) {
	h := newHarness(t)
	const block = memory.Addr(0x100)
	h.caches[0].Fill(block, cache.Modified)
	h.caches[1].Fill(block, cache.Shared)
	v := h.expectViolation(t, block, "swmr")
	if v.Cycle != 42 {
		t.Errorf("cycle = %d, want 42", v.Cycle)
	}
}

func TestDirectoryExactnessViolations(t *testing.T) {
	h := newHarness(t)

	// Cached block with no directory entry at all.
	const orphan = memory.Addr(0x100)
	h.caches[0].Fill(orphan, cache.Shared)
	h.expectViolation(t, orphan, "directory-exactness")

	// Modified copy while the home thinks the block is Shared.
	const stale = memory.Addr(0x200)
	h.caches[1].Fill(stale, cache.Modified)
	e := h.dir.Entry(stale)
	e.State = directory.Shared
	e.Sharers.Add(1)
	h.expectViolation(t, stale, "directory-exactness")

	// LStemp copy the home never granted (home still Shared).
	const leak = memory.Addr(0x300)
	h.caches[2].Fill(leak, cache.LStemp)
	le := h.dir.Entry(leak)
	le.State = directory.Shared
	le.Sharers.Add(2)
	h.expectViolation(t, leak, "directory-exactness")

	// Shared copy whose presence bit is missing.
	const dropped = memory.Addr(0x400)
	h.caches[3].Fill(dropped, cache.Shared)
	de := h.dir.Entry(dropped)
	de.State = directory.Shared
	de.Sharers.Add(0)
	h.caches[0].Fill(dropped, cache.Shared)
	de.Sharers.Remove(3) // no-op: bit never set; cpu3 is the unlisted sharer
	h.expectViolation(t, dropped, "directory-exactness")
}

func TestHomeStateViolation(t *testing.T) {
	h := newHarness(t)
	const block = memory.Addr(0x100)
	e := h.dir.Entry(block)
	e.State = directory.Dirty
	e.Owner = memory.NoNode // structurally illegal: Dirty with no owner
	h.expectViolation(t, block, "home-state")
}

func TestGhostHolderViolation(t *testing.T) {
	h := newHarness(t)
	const block = memory.Addr(0x100)
	e := h.dir.Entry(block)
	e.State = directory.Shared
	e.Sharers.Add(1) // cpu1's cache is empty
	v := h.expectViolation(t, block, "directory-ghost")
	if !strings.Contains(v.Detail, "cpu 1") {
		t.Errorf("detail %q does not name the ghost holder", v.Detail)
	}
}

func TestViolationErrorRendering(t *testing.T) {
	h := newHarness(t)
	const block = memory.Addr(0x110)
	h.caches[0].Fill(block, cache.Modified)
	h.caches[1].Fill(block, cache.Shared)
	err := h.checker.CheckBlock(block, 7)
	if err == nil {
		t.Fatal("no violation")
	}
	msg := err.Error()
	for _, want := range []string{"coherence:", "swmr", "0x110", "cycle 7", "cpu0=M", "cpu1=S"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestCheckAllFindsDirectoryOnlyCorruption(t *testing.T) {
	// A corrupted entry for a block no cache holds is invisible to
	// touched-block checking from the caches' side; the sweep must still
	// find it via the directory walk.
	h := newHarness(t)
	e := h.dir.Entry(memory.Addr(0x500))
	e.State = directory.Shared // no sharers: structurally illegal
	err := h.checker.CheckAll(9)
	if err == nil {
		t.Fatal("CheckAll missed a directory-only corruption")
	}
	v, ok := err.(*CoherenceViolation)
	if !ok || v.Invariant != "home-state" {
		t.Fatalf("got %v, want home-state violation", err)
	}
}

func TestCheckAllReportsInclusionPerBlock(t *testing.T) {
	h := newHarness(t)
	const block = memory.Addr(0x240)
	h.caches[2].Fill(block, cache.Shared)
	e := h.dir.Entry(block)
	e.State = directory.Shared
	e.Sharers.Add(2)
	h.caches[2].L2().Invalidate(block) // the L1 copy stays behind
	err := h.checker.CheckAll(5)
	v, ok := err.(*CoherenceViolation)
	if !ok || v.Invariant != "inclusion" {
		t.Fatalf("got %v, want an inclusion violation", err)
	}
	if v.Block != block || v.Cycle != 5 || !strings.Contains(v.State, "cpu2=I(L1=S)") {
		t.Fatalf("got block %#x cycle %d state %q, want block %#x at cycle 5 naming cpu2's L1 copy",
			v.Block, v.Cycle, v.State, block)
	}
}

// genBlocks are the blocks the generated states use. On the harness
// (64-line L1, 256-line L2, both direct mapped) 0x000, 0x400, 0x1000,
// 0x1400 and 0x2000 share an L1 set, and 0x000, 0x1000 and 0x2000 an L2
// set, so fills evict.
var genBlocks = []memory.Addr{0x000, 0x010, 0x020, 0x400, 0x410, 0x1000, 0x1010, 0x1400, 0x2000, 0x3010}

var copyStates = []cache.State{cache.Shared, cache.Modified, cache.LStemp}

// drop removes cpu's copy of block from the home entry, as a replacement
// hint would.
func (h *harness) drop(block memory.Addr, cpu memory.NodeID) {
	e := h.dir.Entry(block)
	switch {
	case e.State == directory.Shared:
		e.Sharers.Remove(cpu)
		if e.Sharers.Empty() {
			e.State = directory.Uncached
		}
	case e.Owner == cpu:
		e.State, e.Owner = directory.Uncached, memory.NoNode
	}
}

// legalFill gives cpu a copy of block the way the protocol would: other
// copies are invalidated or downgraded, the home entry maps the new copy,
// and an evicted victim leaves its home entry. On a legal machine the
// result is legal.
func (h *harness) legalFill(r *rand.Rand, block memory.Addr, cpu memory.NodeID) {
	s := copyStates[r.Intn(len(copyStates))]
	e := h.dir.Entry(block)
	if h.caches[cpu].Invalidate(block) != cache.Invalid {
		h.drop(block, cpu)
	}
	for i, c := range h.caches {
		n := memory.NodeID(i)
		if s == cache.Shared && c.State(block) == cache.Shared {
			continue
		}
		if s == cache.Shared && c.Downgrade(block) != cache.Invalid {
			e.State, e.Owner = directory.Shared, memory.NoNode
			e.Sharers.Add(n)
			continue
		}
		if c.Invalidate(block) != cache.Invalid {
			h.drop(block, n)
		}
	}
	if v, ok := h.caches[cpu].Fill(block, s); ok {
		h.drop(v.Block, cpu)
	}
	switch s {
	case cache.Shared:
		e.State = directory.Shared
		e.Sharers.Add(cpu)
	case cache.Modified:
		e.State, e.Owner = directory.Dirty, cpu
		if r.Intn(2) == 0 {
			e.State = directory.Excl // the LS protocol's silent promotion
		}
	case cache.LStemp:
		e.State, e.Owner = directory.Excl, cpu
	}
}

// corrupt applies one random illegal change: a forced copy state, a fill
// the home never saw, an L2-only invalidation, an L1-only state change,
// or a random home state, owner and sharer set.
func (h *harness) corrupt(r *rand.Rand) {
	block := genBlocks[r.Intn(len(genBlocks))]
	c := h.caches[r.Intn(len(h.caches))]
	switch r.Intn(5) {
	case 0:
		c.ForceState(block, copyStates[r.Intn(len(copyStates))])
	case 1:
		if c.State(block) == cache.Invalid && c.L1().Probe(block) == cache.Invalid {
			c.Fill(block, copyStates[r.Intn(len(copyStates))])
		}
	case 2:
		c.L2().Invalidate(block)
	case 3:
		c.L1().SetState(block, copyStates[r.Intn(len(copyStates))])
	case 4:
		e := h.dir.Entry(block)
		e.State = directory.HomeState(r.Intn(5))             // 4 is no state at all
		e.Owner = memory.NodeID(r.Intn(len(h.caches)+1)) - 1 // NoNode or a CPU
		e.Sharers.Clear()
		for i := range h.caches {
			if r.Intn(2) == 0 {
				e.Sharers.Add(memory.NodeID(i))
			}
		}
	}
}

// firstBlockViolation is CheckAll's oracle: CheckBlock over the sorted
// union of every block held in any L1, any L2 or the directory, stopping
// at the first failure.
func (h *harness) firstBlockViolation(cycle uint64) error {
	seen := map[memory.Addr]bool{}
	for _, c := range h.caches {
		note := func(b memory.Addr, _ cache.State) { seen[b] = true }
		c.L1().ForEach(note)
		c.L2().ForEach(note)
	}
	h.dir.ForEach(func(idx uint64, _ *directory.Entry) {
		seen[memory.Addr(idx*h.layout.BlockSize)] = true
	})
	blocks := make([]memory.Addr, 0, len(seen))
	for b := range seen {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for _, b := range blocks {
		if err := h.checker.CheckBlock(b, cycle); err != nil {
			return err
		}
	}
	return nil
}

// TestCheckAllMatchesCheckBlock pins the one-pass sweep to the per-block
// checker on generated states: CheckAll fails exactly when some block
// fails CheckBlock, and reports the lowest-addressed such block with
// CheckBlock's diagnosis.
func TestCheckAllMatchesCheckBlock(t *testing.T) {
	const states = 20000
	r := rand.New(rand.NewSource(1))
	violating := 0
	for i := 0; i < states; i++ {
		h := newHarness(t)
		for j := r.Intn(12); j > 0; j-- {
			h.legalFill(r, genBlocks[r.Intn(len(genBlocks))], memory.NodeID(r.Intn(len(h.caches))))
		}
		for j := r.Intn(3); j > 0; j-- {
			h.corrupt(r)
		}
		cycle := uint64(i)
		want := h.firstBlockViolation(cycle)
		got := h.checker.CheckAll(cycle)
		if want == nil {
			if got != nil {
				t.Fatalf("state %d: CheckAll = %v, but every block passes CheckBlock", i, got)
			}
			continue
		}
		violating++
		g, ok := got.(*CoherenceViolation)
		if !ok || *g != *want.(*CoherenceViolation) {
			t.Fatalf("state %d: CheckAll = %v\nwant the first CheckBlock failure %v", i, got, want)
		}
	}
	t.Logf("%d generated states, %d violating", states, violating)
	if violating < states/10 || violating > states*9/10 {
		t.Errorf("%d of %d states violate: the generator no longer mixes clean and corrupt states", violating, states)
	}
}

// TestCheckAllAllocs guards the sweep's cost: on a populated clean
// machine it allocates nothing.
func TestCheckAllAllocs(t *testing.T) {
	h := newHarness(t)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		h.legalFill(r, memory.Addr(r.Intn(1024))*16, memory.NodeID(r.Intn(len(h.caches))))
	}
	if err := h.checker.CheckAll(0); err != nil {
		t.Fatalf("legal fills built an illegal machine: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { h.checker.CheckAll(0) }); n != 0 {
		t.Errorf("CheckAll allocates %v times per sweep on a clean machine, want 0", n)
	}
}

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
	}{{"", Off}, {"off", Off}, {"touched", Touched}, {"full", Full}}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("Level(%v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
	if _, err := ParseLevel("paranoid"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}
