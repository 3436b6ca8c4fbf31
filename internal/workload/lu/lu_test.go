package lu

import (
	"math"
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/engine"
	"lsnuma/internal/protocol"
	"lsnuma/internal/workload"
)

func machine(t *testing.T, kind protocol.Kind) *engine.Machine {
	t.Helper()
	m, err := engine.NewMachine(engine.Config{
		Nodes:     4,
		L1:        cache.Config{Size: 4 * 1024, Assoc: 1, BlockSize: 16, AccessTime: 1},
		L2:        cache.Config{Size: 64 * 1024, Assoc: 1, BlockSize: 16, AccessTime: 10},
		PageSize:  4096,
		Protocol:  protocol.New(kind, protocol.Variant{}),
		MaxCycles: 20_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigScales(t *testing.T) {
	paper := ConfigFor(workload.ScalePaper)
	if paper.N != 256 || paper.B != 16 {
		t.Errorf("paper scale = %+v, want 256x256 blocked 16", paper)
	}
	test := ConfigFor(workload.ScaleTest)
	if test.N%test.B != 0 {
		t.Errorf("test N=%d not a multiple of B=%d", test.N, test.B)
	}
}

func TestProgramsValidation(t *testing.T) {
	m := machine(t, protocol.Baseline)
	if _, err := NewWithConfig(Config{N: 50, B: 16}, 4).Programs(m); err == nil {
		t.Error("N not multiple of B accepted")
	}
}

func TestOwner2DScatter(t *testing.T) {
	w := NewWithConfig(Config{N: 64, B: 16}, 4)
	// 2x2 processor grid.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			o := w.owner(i, j)
			if o < 0 || o > 3 {
				t.Fatalf("owner(%d,%d) = %d", i, j, o)
			}
			seen[o] = true
			if o != w.owner(i+2, j) || o != w.owner(i, j+2) {
				t.Error("2D scatter not periodic with stride 2")
			}
		}
	}
	if len(seen) != 4 {
		t.Errorf("only %d owners used", len(seen))
	}
}

func TestFactorizationCorrect(t *testing.T) {
	m := machine(t, protocol.LS)
	cfg := ConfigFor(workload.ScaleTest)
	w := NewWithConfig(cfg, 4)
	progs, err := w.Programs(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Error(err)
	}
	if r := Residual(cfg, w.Matrix()); r > 1e-9 {
		t.Errorf("LU residual = %g", r)
	}
}

// TestSameResultUnderAllProtocols: the coherence protocol must never
// change program semantics, only timing.
func TestSameResultUnderAllProtocols(t *testing.T) {
	cfg := ConfigFor(workload.ScaleTest)
	var ref []float64
	for _, kind := range []protocol.Kind{protocol.Baseline, protocol.AD, protocol.LS} {
		m := machine(t, kind)
		w := NewWithConfig(cfg, 4)
		progs, err := w.Programs(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = w.Matrix()
			continue
		}
		for i, v := range w.Matrix() {
			if math.Abs(v-ref[i]) > 1e-12 {
				t.Fatalf("%v: element %d differs: %g vs %g", kind, i, v, ref[i])
			}
		}
	}
}

func TestResidualDetectsCorruption(t *testing.T) {
	cfg := Config{N: 16, B: 8, Seed: 3}
	m := machine(t, protocol.Baseline)
	w := NewWithConfig(cfg, 4)
	progs, err := w.Programs(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	good := Residual(cfg, w.Matrix())
	w.Matrix()[5] += 1.0
	bad := Residual(cfg, w.Matrix())
	if bad <= good {
		t.Errorf("residual did not detect corruption: good=%g bad=%g", good, bad)
	}
}

// TestMisalignedLayoutSharesBlocks documents the deliberate malloc-style
// misalignment: the matrix base is 8-byte but not 16-byte aligned, so a
// 16-byte cache block straddles block-column ownership boundaries.
func TestMisalignedLayoutSharesBlocks(t *testing.T) {
	m := machine(t, protocol.Baseline)
	w := NewWithConfig(Config{N: 32, B: 8, Seed: 3}, 4)
	if _, err := w.Programs(m); err != nil {
		t.Fatal(err)
	}
	base := w.arr.Addr(0)
	if uint64(base)%8 != 0 {
		t.Fatalf("matrix base %#x not 8-aligned", base)
	}
	if uint64(base)%16 == 0 {
		t.Fatalf("matrix base %#x unexpectedly 16-aligned (shim missing)", base)
	}
	// The boundary elements of adjacent block-columns share a cache block.
	layout := m.Layout()
	lastOfBlock0 := w.rowAddr(0, 7)
	firstOfBlock1 := w.rowAddr(0, 8)
	if !layout.SameBlock(lastOfBlock0, firstOfBlock1) {
		t.Error("block-column boundary does not share a cache block (false sharing lost)")
	}
}
