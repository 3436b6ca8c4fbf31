package memory

import (
	"testing"
	"testing/quick"
)

func mustLayout(t *testing.T, page, block uint64, nodes int) Layout {
	t.Helper()
	l, err := NewLayout(page, block, nodes)
	if err != nil {
		t.Fatalf("NewLayout(%d,%d,%d): %v", page, block, nodes, err)
	}
	return l
}

func TestNewLayoutValidation(t *testing.T) {
	cases := []struct {
		page, block uint64
		nodes       int
		ok          bool
	}{
		{4096, 16, 4, true},
		{4096, 32, 1, true},
		{4096, 256, 32, true},
		{4096, 4096, 4, true},
		{4096, 8192, 4, false}, // block > page
		{4095, 16, 4, false},   // page not power of two
		{4096, 24, 4, false},   // block not power of two
		{4096, 0, 4, false},
		{0, 16, 4, false},
		{4096, 16, 0, false},
		{4096, 16, -3, false},
	}
	for _, c := range cases {
		_, err := NewLayout(c.page, c.block, c.nodes)
		if (err == nil) != c.ok {
			t.Errorf("NewLayout(%d,%d,%d) err=%v, want ok=%v", c.page, c.block, c.nodes, err, c.ok)
		}
	}
}

func TestHomeRoundRobin(t *testing.T) {
	l := mustLayout(t, 4096, 16, 4)
	for page := 0; page < 16; page++ {
		addr := Addr(page * 4096)
		want := NodeID(page % 4)
		if got := l.Home(addr); got != want {
			t.Errorf("Home(page %d) = %d, want %d", page, got, want)
		}
		// Every address within the page has the same home.
		if got := l.Home(addr + 4095); got != want {
			t.Errorf("Home(page %d end) = %d, want %d", page, got, want)
		}
	}
}

func TestBlockArithmetic(t *testing.T) {
	l := mustLayout(t, 4096, 32, 4)
	if got := l.Block(0x1234); got != 0x1220 {
		t.Errorf("Block(0x1234) = %#x, want 0x1220", got)
	}
	if got := l.BlockIndex(0x1234); got != 0x1234/32 {
		t.Errorf("BlockIndex = %d", got)
	}
	if got := l.WordInBlock(0x1234); got != int((0x1234%32)/4) {
		t.Errorf("WordInBlock = %d", got)
	}
	if got := l.WordsPerBlock(); got != 8 {
		t.Errorf("WordsPerBlock = %d, want 8", got)
	}
	if !l.SameBlock(0x1220, 0x123f) {
		t.Error("SameBlock(0x1220, 0x123f) = false, want true")
	}
	if l.SameBlock(0x121f, 0x1220) {
		t.Error("SameBlock(0x121f, 0x1220) = true, want false")
	}
}

func TestSplitByBlockSingle(t *testing.T) {
	l := mustLayout(t, 4096, 16, 4)
	parts := l.SplitByBlock(0x100, 8)
	if len(parts) != 1 || parts[0].Addr != 0x100 || parts[0].Size != 8 {
		t.Fatalf("SplitByBlock single = %+v", parts)
	}
}

func TestSplitByBlockStraddle(t *testing.T) {
	l := mustLayout(t, 4096, 16, 4)
	parts := l.SplitByBlock(0x10c, 8) // 4 bytes in block 0x100, 4 in 0x110
	if len(parts) != 2 {
		t.Fatalf("SplitByBlock straddle = %+v", parts)
	}
	if parts[0].Addr != 0x10c || parts[0].Size != 4 {
		t.Errorf("part 0 = %+v", parts[0])
	}
	if parts[1].Addr != 0x110 || parts[1].Size != 4 {
		t.Errorf("part 1 = %+v", parts[1])
	}
}

func TestSplitByBlockZero(t *testing.T) {
	l := mustLayout(t, 4096, 16, 4)
	if parts := l.SplitByBlock(0x100, 0); parts != nil {
		t.Errorf("SplitByBlock zero size = %+v, want nil", parts)
	}
}

func TestSplitByBlockProperties(t *testing.T) {
	l := mustLayout(t, 4096, 64, 4)
	f := func(addr uint32, size uint16) bool {
		a := Addr(addr)
		sz := uint32(size%512) + 1
		parts := l.SplitByBlock(a, sz)
		// Parts must be contiguous, cover exactly [a, a+sz), and each
		// part must stay within one block.
		var total uint32
		cur := a
		for _, p := range parts {
			if p.Addr != cur {
				return false
			}
			if !l.SameBlock(p.Addr, p.Addr+Addr(p.Size)-1) {
				return false
			}
			cur += Addr(p.Size)
			total += p.Size
		}
		return total == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorAlignmentAndNonOverlap(t *testing.T) {
	l := mustLayout(t, 4096, 32, 4)
	a := NewAllocator(l, 0)
	prevEnd := Addr(0)
	for i, req := range []struct {
		size, align uint64
	}{
		{100, 0}, {1, 4}, {64, 32}, {5000, 4096}, {32, 32}, {7, 0},
	} {
		base := a.Alloc("r", req.size, req.align)
		align := req.align
		if align < WordSize {
			align = WordSize
		}
		if uint64(base)%align != 0 {
			t.Errorf("alloc %d: base %#x not aligned to %d", i, base, align)
		}
		if base < prevEnd {
			t.Errorf("alloc %d: base %#x overlaps previous end %#x", i, base, prevEnd)
		}
		sz := req.size
		if sz == 0 {
			sz = WordSize
		}
		prevEnd = base + Addr(sz)
	}
	if a.Used() < uint64(prevEnd) {
		t.Errorf("Used() = %d < end %d", a.Used(), prevEnd)
	}
}

func TestAllocatorBlocksAndPages(t *testing.T) {
	l := mustLayout(t, 4096, 64, 4)
	a := NewAllocator(l, 12345)
	b := a.AllocBlocks("blocks", 10)
	if uint64(b)%64 != 0 {
		t.Errorf("AllocBlocks base %#x not block aligned", b)
	}
}

func TestAllocatorRegions(t *testing.T) {
	l := mustLayout(t, 4096, 64, 4)
	a := NewAllocator(l, 0)
	a.Alloc("matrix", 100, 0)
	a.Alloc("locks", 50, 0)
	a.Alloc("matrix", 20, 0)
	regions := a.Regions()
	if len(regions) != 2 {
		t.Fatalf("Regions = %+v, want 2 entries", regions)
	}
	if regions[0].Name != "matrix" || regions[0].Size != 120 {
		t.Errorf("region 0 = %+v", regions[0])
	}
	if regions[1].Name != "locks" || regions[1].Size != 50 {
		t.Errorf("region 1 = %+v", regions[1])
	}
}

func TestAllocatorZeroSize(t *testing.T) {
	l := mustLayout(t, 4096, 64, 4)
	a := NewAllocator(l, 0)
	b1 := a.Alloc("a", 0, 0)
	b2 := a.Alloc("b", 4, 0)
	if b2 == b1 {
		t.Error("zero-size allocation did not reserve space")
	}
}

func TestKindAndSourceStrings(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("Kind strings wrong")
	}
	if SrcApp.String() != "app" || SrcLib.String() != "lib" || SrcOS.String() != "os" {
		t.Error("Source strings wrong")
	}
	if Kind(9).String() == "" || Source(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
}

func TestHomeSingleNode(t *testing.T) {
	l := mustLayout(t, 4096, 16, 1)
	for _, addr := range []Addr{0, 4096, 1 << 20} {
		if got := l.Home(addr); got != 0 {
			t.Errorf("Home(%#x) = %d, want 0", addr, got)
		}
	}
}

func TestFindName(t *testing.T) {
	l := mustLayout(t, 4096, 16, 4)
	a := NewAllocator(l, 0)
	x := a.Alloc("x", 100, 0)
	y := a.Alloc("y", 50, 64)
	z := a.Alloc("x", 32, 0) // same name again, later segment
	if got := a.FindName(x); got != "x" {
		t.Errorf("FindName(x base) = %q", got)
	}
	if got := a.FindName(x + 99); got != "x" {
		t.Errorf("FindName(x end) = %q", got)
	}
	if got := a.FindName(y + 10); got != "y" {
		t.Errorf("FindName(y) = %q", got)
	}
	if got := a.FindName(z); got != "x" {
		t.Errorf("FindName(second x) = %q", got)
	}
	if got := a.FindName(Addr(1 << 40)); got != "" {
		t.Errorf("FindName(unallocated) = %q", got)
	}
}

func TestFindNameProperty(t *testing.T) {
	l := mustLayout(t, 4096, 16, 4)
	a := NewAllocator(l, 0)
	names := []string{"a", "b", "c", "d"}
	type seg struct {
		base Addr
		end  Addr
		name string
	}
	var segs []seg
	rng := uint64(12345)
	for i := 0; i < 200; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		name := names[rng>>33%4]
		size := rng>>20%500 + 1
		align := uint64(1) << (rng >> 50 % 7)
		base := a.Alloc(name, size, align)
		segs = append(segs, seg{base, base + Addr(size), name})
	}
	// Every allocated byte resolves to its region name.
	for _, sg := range segs {
		for _, addr := range []Addr{sg.base, sg.base + (sg.end-sg.base)/2, sg.end - 1} {
			if got := a.FindName(addr); got != sg.name {
				t.Fatalf("FindName(%#x) = %q, want %q", addr, got, sg.name)
			}
		}
	}
}
