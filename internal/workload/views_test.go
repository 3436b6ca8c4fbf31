package workload

import (
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/engine"
	"lsnuma/internal/protocol"
)

func testMachine(t *testing.T) *engine.Machine {
	t.Helper()
	m, err := engine.NewMachine(engine.Config{
		Nodes:     2,
		L1:        cache.Config{Size: 1024, Assoc: 1, BlockSize: 16, AccessTime: 1},
		L2:        cache.Config{Size: 4096, Assoc: 1, BlockSize: 16, AccessTime: 10},
		PageSize:  4096,
		Protocol:  protocol.New(protocol.LS, protocol.Variant{}),
		MaxCycles: 100_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestViewsThroughEngine exercises every typed-view accessor through a
// real simulated program and checks both the values and the access
// accounting.
func TestViewsThroughEngine(t *testing.T) {
	m := testMachine(t)
	a := m.Alloc()
	f := NewF64(a, "f", 8)
	i32 := NewI32(a, "i", 8)
	recs := NewRecords(a, "r", 4, 32, 0)

	var got float64
	var gotI int32
	prog := func(p *engine.Proc) {
		f.Set(p, 2, 1.5)
		f.Update(p, 2, func(v float64) float64 { return v * 2 })
		got = f.Get(p, 2)

		i32.Set(p, 3, 7)
		i32.Add(p, 3, 5)
		gotI = i32.Get(p, 3)

		recs.WriteField(p, 1, 8, 16)
		recs.ReadField(p, 1, 8, 16)

		// A genuine load-store sequence on a fresh element: global read
		// followed by the same processor's global write.
		f.Get(p, 6)
		f.Set(p, 6, 9)
	}
	if err := m.Run([]engine.Program{prog}); err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Errorf("F64 value = %v, want 3", got)
	}
	if gotI != 12 {
		t.Errorf("I32 value = %d, want 12", gotI)
	}
	sum := m.Stats().Sum()
	if sum.Loads == 0 || sum.Stores == 0 {
		t.Error("views issued no simulated accesses")
	}
	if m.Sequences().Total().LoadStoreWrites == 0 {
		t.Error("no load-store sequences detected from the view helpers")
	}
}

// TestZeroSizeAccessorsAreNoOps: ReadN/WriteN with size 0 must not panic
// or submit operations.
func TestZeroSizeAccessorsAreNoOps(t *testing.T) {
	m := testMachine(t)
	prog := func(p *engine.Proc) {
		p.ReadN(0, 0)
		p.WriteN(0, 0)
		p.ReadExN(0, 0)
	}
	if err := m.Run([]engine.Program{prog}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Sum().Loads != 0 || m.Stats().Sum().Stores != 0 {
		t.Error("zero-size accesses were submitted")
	}
}
