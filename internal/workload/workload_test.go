package workload

import (
	"testing"

	"lsnuma/internal/memory"
)

func alloc(t *testing.T) *memory.Allocator {
	t.Helper()
	l, err := memory.NewLayout(4096, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	return memory.NewAllocator(l, 0)
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"test": ScaleTest, "small": ScaleSmall, "paper": ScalePaper} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
	if ScaleTest.String() != "test" || ScaleSmall.String() != "small" || ScalePaper.String() != "paper" {
		t.Error("scale strings wrong")
	}
	if Scale(42).String() == "" {
		t.Error("unknown scale string empty")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := Rand(7), Rand(7)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Rand not deterministic per seed")
		}
	}
}

func TestF64Layout(t *testing.T) {
	a := alloc(t)
	x := NewF64(a, "x", 10)
	if x.Len() != 10 {
		t.Errorf("Len = %d", x.Len())
	}
	if x.Addr(3)-x.Addr(0) != 24 {
		t.Errorf("element stride = %d", x.Addr(3)-x.Addr(0))
	}
	if uint64(x.Addr(0))%8 != 0 {
		t.Errorf("base %#x not 8-aligned", x.Addr(0))
	}
	x.Poke(4, 2.5)
	if x.Peek(4) != 2.5 {
		t.Error("Poke/Peek roundtrip failed")
	}
}

func TestI32Layout(t *testing.T) {
	a := alloc(t)
	x := NewI32(a, "x", 8)
	if x.Len() != 8 {
		t.Errorf("Len = %d", x.Len())
	}
	if x.Addr(2)-x.Addr(0) != 8 {
		t.Errorf("element stride = %d", x.Addr(2)-x.Addr(0))
	}
	x.Poke(1, -7)
	if x.Peek(1) != -7 {
		t.Error("Poke/Peek roundtrip failed")
	}
}

func TestRecordLayout(t *testing.T) {
	a := alloc(t)
	r := NewRecords(a, "recs", 5, 64, 0)
	if r.Count() != 5 || r.Size() != 64 {
		t.Errorf("Count/Size = %d/%d", r.Count(), r.Size())
	}
	if r.Addr(2, 8)-r.Addr(0, 0) != 2*64+8 {
		t.Errorf("record addressing wrong: %d", r.Addr(2, 8)-r.Addr(0, 0))
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	a := alloc(t)
	x := NewF64(a, "x", 10)
	y := NewI32(a, "y", 10)
	r := NewRecords(a, "r", 3, 32, 0)
	endX := x.Addr(9) + 8
	if y.Addr(0) < endX {
		t.Error("y overlaps x")
	}
	endY := y.Addr(9) + 4
	if r.Addr(0, 0) < endY {
		t.Error("r overlaps y")
	}
}
