package directory

import (
	"slices"
	"testing"
	"testing/quick"

	"lsnuma/internal/memory"
)

func layout(t *testing.T) memory.Layout {
	t.Helper()
	l, err := memory.NewLayout(4096, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("zero bitset not empty")
	}
	b.Add(3)
	b.Add(7)
	b.Add(3) // idempotent
	if b.Count() != 2 || !b.Has(3) || !b.Has(7) || b.Has(0) {
		t.Fatalf("bitset = %b", b)
	}
	b.Remove(3)
	if b.Count() != 1 || b.Has(3) {
		t.Fatalf("after remove = %b", b)
	}
	b.Remove(3) // idempotent
	if b.Count() != 1 {
		t.Fatalf("double remove changed set: %b", b)
	}
}

func TestBitsetOther(t *testing.T) {
	var b Bitset
	b.Add(2)
	b.Add(6)
	if got := b.Other(2); got != 6 {
		t.Errorf("Other(2) = %d", got)
	}
	if got := b.Other(6); got != 2 {
		t.Errorf("Other(6) = %d", got)
	}
	if got := b.Other(3); got != memory.NoNode {
		t.Errorf("Other(non-member) = %d", got)
	}
	b.Add(9)
	if got := b.Other(2); got != memory.NoNode {
		t.Errorf("Other with 3 members = %d", got)
	}
}

func TestBitsetForEachOrder(t *testing.T) {
	var b Bitset
	for _, n := range []memory.NodeID{9, 1, 33, 0} {
		b.Add(n)
	}
	var got []memory.NodeID
	b.ForEach(func(n memory.NodeID) { got = append(got, n) })
	want := []memory.NodeID{0, 1, 9, 33}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v, want %v", got, want)
		}
	}
}

// fromWords builds a Bitset whose members are the set bits of the given
// 64-bit words (word i covering nodes [i*64, i*64+64)).
func fromWords(words ...uint64) Bitset {
	var b Bitset
	for i, w := range words {
		for bit := 0; bit < 64; bit++ {
			if w&(1<<uint(bit)) != 0 {
				b.Add(memory.NodeID(i*64 + bit))
			}
		}
	}
	return b
}

func TestBitsetCountMatchesForEach(t *testing.T) {
	f := func(lo, hi uint64) bool {
		b := fromWords(lo, hi)
		n := 0
		b.ForEach(func(memory.NodeID) { n++ })
		return n == b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsetBeyond64(t *testing.T) {
	var b Bitset
	for _, n := range []memory.NodeID{0, 63, 64, 200, 1023} {
		b.Add(n)
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d", b.Count())
	}
	for _, n := range []memory.NodeID{0, 63, 64, 200, 1023} {
		if !b.Has(n) {
			t.Errorf("Has(%d) = false", n)
		}
	}
	if b.Has(65) || b.Has(1024) || b.Has(4000) {
		t.Error("Has reports absent high members")
	}
	b.Remove(200)
	if b.Count() != 4 || b.Has(200) {
		t.Fatalf("after Remove(200): %v", b)
	}
	var got []memory.NodeID
	b.ForEach(func(n memory.NodeID) { got = append(got, n) })
	want := []memory.NodeID{0, 63, 64, 1023}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v, want %v", got, want)
		}
	}
	if !b.Equal(Of(0, 63, 64, 1023)) || b.Equal(Of(0, 63, 64)) {
		t.Error("Equal wrong across words")
	}
	b.Clear()
	if !b.Empty() || !b.Equal(Bitset{}) {
		t.Fatalf("Clear left members: %v", b)
	}
	two := Of(70, 900)
	if two.Other(70) != 900 || two.Other(900) != 70 {
		t.Errorf("Other across high words = %d/%d", two.Other(70), two.Other(900))
	}
}

func TestEntryLazyCreation(t *testing.T) {
	d := New(layout(t), nil)
	if d.Len() != 0 {
		t.Fatal("new directory not empty")
	}
	e := d.Entry(0x120)
	if e.State != Uncached || e.Owner != memory.NoNode || e.LR != memory.NoNode || e.LastWriter != memory.NoNode {
		t.Fatalf("fresh entry = %+v", e)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Same block, same entry.
	if d.Entry(0x120) != e {
		t.Fatal("second lookup returned different entry")
	}
	// Addresses inside the same block share the entry (the directory is
	// indexed by block; callers pass block-aligned addresses, but any
	// address in the block resolves identically).
	if d.Entry(0x12c) != e {
		t.Fatal("same-block address returned different entry")
	}
	if d.Entry(0x130) == e {
		t.Fatal("different block shared an entry")
	}
}

func TestInitHook(t *testing.T) {
	d := New(layout(t), func(e *Entry) { e.LS = true; e.Migratory = true })
	e := d.Entry(0x40)
	if !e.LS || !e.Migratory {
		t.Fatalf("init hook not applied: %+v", e)
	}
}

func TestEntryInvariants(t *testing.T) {
	ok := []Entry{
		{State: Uncached, Owner: memory.NoNode},
		{State: Shared, Sharers: Of(1, 3), Owner: memory.NoNode},
		{State: Dirty, Owner: 2},
		{State: Excl, Owner: 0},
	}
	for i, e := range ok {
		if err := e.CheckInvariant(); err != nil {
			t.Errorf("valid entry %d rejected: %v", i, err)
		}
	}
	bad := []Entry{
		{State: Uncached, Sharers: Of(0), Owner: memory.NoNode},
		{State: Shared, Owner: memory.NoNode},
		{State: Dirty, Owner: memory.NoNode},
		{State: Excl, Owner: memory.NoNode},
		{State: Dirty, Owner: 1, Sharers: Of(1)},
		{State: HomeState(9)},
	}
	for i, e := range bad {
		if err := e.CheckInvariant(); err == nil {
			t.Errorf("invalid entry %d accepted: %+v", i, e)
		}
	}
}

func TestHolders(t *testing.T) {
	e := Entry{State: Shared, Sharers: Of(1, 2), Owner: memory.NoNode}
	if h := e.Holders(); !h.Equal(Of(1, 2)) {
		t.Errorf("Shared Holders = %v", h)
	}
	if !e.Holds(1) || e.Holds(0) {
		t.Error("Holds wrong for Shared")
	}
	e = Entry{State: Dirty, Owner: 3}
	if h := e.Holders(); !h.Has(3) || h.Count() != 1 {
		t.Errorf("Dirty Holders = %v", h)
	}
	e = Entry{State: Uncached, Owner: memory.NoNode}
	if !e.Holders().Empty() {
		t.Error("Uncached has holders")
	}
	e = Entry{State: Excl, Owner: memory.NoNode}
	if !e.Holders().Empty() {
		t.Error("ownerless Excl has holders")
	}
}

func TestHomeStateString(t *testing.T) {
	for s, want := range map[HomeState]string{
		Uncached: "Uncached", Shared: "Shared", Dirty: "Dirty", Excl: "Load-Store",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", uint8(s), s.String())
		}
	}
	if HomeState(12).String() == "" {
		t.Error("unknown state string empty")
	}
}

func TestForEach(t *testing.T) {
	d := New(layout(t), nil)
	d.Entry(0x00)
	d.Entry(0x10)
	d.Entry(0x20)
	n := 0
	d.ForEach(func(idx uint64, e *Entry) {
		n++
		if e == nil {
			t.Error("nil entry in ForEach")
		}
	})
	if n != 3 {
		t.Errorf("ForEach visited %d entries", n)
	}
}

// TestForEachAscendingOrder is the regression test for the ordering
// contract: iteration must yield strictly ascending block indices no
// matter the insertion order. (A map-backed directory used to iterate in
// Go map order, making repro bundles and fault-target selection
// nondeterministic.)
//
// Its subtest is named after the flat paged layout.
func TestForEachAscendingOrder(t *testing.T) {
	// Insertion order deliberately scrambled, spanning several pages
	// (4096/16 = 256 entries per page) and bitset words.
	blocks := []memory.Addr{0x7f30, 0x10, 0x4000, 0x20f0, 0x00, 0x1010, 0x9ff0, 0x40, 0x8000}
	t.Run("flat", func(t *testing.T) {
		d := New(layout(t), nil)
		for _, b := range blocks {
			d.Entry(b)
		}
		var got []uint64
		d.ForEach(func(idx uint64, e *Entry) { got = append(got, idx) })
		if len(got) != len(blocks) {
			t.Fatalf("ForEach visited %d entries, want %d", len(got), len(blocks))
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("ForEach order not strictly ascending: %v", got)
			}
		}
	})
}

// mapDir is TestBackendEquivalence's reference model of the directory's
// storage semantics, written the obvious way: one heap Entry per touched
// block in a map, iterated in sorted block order.
type mapDir struct {
	init    func(*Entry)
	shift   uint
	entries map[uint64]*Entry
}

func (d *mapDir) Entry(block memory.Addr) *Entry {
	idx := uint64(block) >> d.shift
	e, ok := d.entries[idx]
	if !ok {
		e = &Entry{Owner: memory.NoNode, LR: memory.NoNode, LastWriter: memory.NoNode}
		if d.init != nil {
			d.init(e)
		}
		d.entries[idx] = e
	}
	return e
}

func (d *mapDir) ForEach(fn func(uint64, *Entry)) {
	idxs := make([]uint64, 0, len(d.entries))
	for idx := range d.entries {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		fn(idx, d.entries[idx])
	}
}

// entryEqual compares every Entry field; Entry stopped being Go-comparable
// when Bitset grew its extension-word slice.
func entryEqual(a, b *Entry) bool {
	return a.State == b.State && a.Sharers.Equal(b.Sharers) &&
		a.Owner == b.Owner && a.LR == b.LR && a.LS == b.LS &&
		a.LastWriter == b.LastWriter && a.Migratory == b.Migratory &&
		a.TagCount == b.TagCount && a.DetagCount == b.DetagCount &&
		a.Ovf == b.Ovf
}

// TestBackendEquivalence drives the paged directory and the map model
// through an identical mutation sequence and requires identical Len,
// Lookup and ForEach views.
func TestBackendEquivalence(t *testing.T) {
	l := layout(t)
	init := func(e *Entry) { e.LS = true }
	flat := New(l, init)
	const shift = 4 // log2 of layout(t)'s 16-byte blocks
	mp := &mapDir{init: init, shift: shift, entries: map[uint64]*Entry{}}
	// A deterministic pseudo-random walk of touches and mutations.
	x := uint64(12345)
	for i := 0; i < 3000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		block := memory.Addr((x>>16)%4096) * 16
		ef, em := flat.Entry(block), mp.Entry(block)
		if !entryEqual(ef, em) {
			t.Fatalf("entries diverge at %#x: flat %+v map %+v", block, *ef, *em)
		}
		switch i % 3 {
		case 0:
			ef.State, em.State = Shared, Shared
			ef.Sharers.Add(memory.NodeID(i % 4))
			em.Sharers.Add(memory.NodeID(i % 4))
		case 1:
			ef.State, em.State = Dirty, Dirty
			ef.Owner, em.Owner = memory.NodeID(i%4), memory.NodeID(i%4)
			ef.Sharers.Clear()
			em.Sharers.Clear()
		}
	}
	if flat.Len() != len(mp.entries) {
		t.Fatalf("Len diverges: flat %d map %d", flat.Len(), len(mp.entries))
	}
	type view struct {
		idx uint64
		e   Entry
	}
	var vf, vm []view
	flat.ForEach(func(idx uint64, e *Entry) { vf = append(vf, view{idx, *e}) })
	mp.ForEach(func(idx uint64, e *Entry) { vm = append(vm, view{idx, *e}) })
	if len(vf) != len(vm) {
		t.Fatalf("ForEach sizes diverge: flat %d map %d", len(vf), len(vm))
	}
	for i := range vf {
		if vf[i].idx != vm[i].idx || !entryEqual(&vf[i].e, &vm[i].e) {
			t.Fatalf("ForEach diverges at %d: flat %+v map %+v", i, vf[i], vm[i])
		}
	}
	// Lookup finds exactly the touched blocks and never creates one.
	for _, v := range vm {
		if e, ok := flat.Lookup(memory.Addr(v.idx << shift)); !ok || !entryEqual(e, &v.e) {
			t.Fatalf("Lookup(%#x) = %v, %v; want %+v", v.idx<<shift, e, ok, v.e)
		}
	}
	if _, ok := flat.Lookup(memory.Addr(4096 * 16 * 4)); ok {
		t.Error("Lookup invented an entry")
	}
	if flat.Len() != len(mp.entries) {
		t.Error("Lookup changed Len")
	}
}

// TestEntryPointerStability verifies the directory's aliasing contract:
// pointers returned by Entry stay valid and keep aliasing the same block
// while later touches allocate new pages and grow the spine.
func TestEntryPointerStability(t *testing.T) {
	d := New(layout(t), nil)
	e := d.Entry(0x40)
	e.State = Dirty
	e.Owner = 2
	// Touch blocks far beyond the first page, forcing spine growth.
	for i := 0; i < 10_000; i++ {
		d.Entry(memory.Addr(i) * 16 * 300)
	}
	if d.Entry(0x40) != e {
		t.Fatal("entry pointer changed after spine growth")
	}
	if e.State != Dirty || e.Owner != 2 {
		t.Fatalf("entry contents changed: %+v", e)
	}
}

// TestLargeBlockLayout exercises the minEntriesPerPage clamp: with
// 256-byte blocks a physical page holds only 16 blocks, far below the
// clamp, and indexing must still be exact.
func TestLargeBlockLayout(t *testing.T) {
	l, err := memory.NewLayout(4096, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := New(l, nil)
	a := d.Entry(0x000)
	b := d.Entry(0x100)
	if a == b {
		t.Fatal("adjacent 256B blocks shared an entry")
	}
	if d.Entry(0x0ff) != a || d.Entry(0x1ff) != b {
		t.Fatal("intra-block addresses resolved to wrong entries")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}
