package cholesky

import (
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/engine"
	"lsnuma/internal/protocol"
	"lsnuma/internal/workload"
)

func machine(t *testing.T, kind protocol.Kind, nodes int) *engine.Machine {
	t.Helper()
	m, err := engine.NewMachine(engine.Config{
		Nodes:     nodes,
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

func TestStructureDeterministicAndAcyclic(t *testing.T) {
	cfg := ConfigFor(workload.ScaleTest)
	h1, t1 := structureFor(cfg, 4)
	h2, t2 := structureFor(cfg, 4)
	for j := range h1 {
		if h1[j] != h2[j] {
			t.Fatal("heights not deterministic")
		}
		if len(t1[j]) != len(t2[j]) {
			t.Fatal("targets not deterministic")
		}
		for i := range t1[j] {
			if t1[j][i] != t2[j][i] {
				t.Fatal("targets not deterministic")
			}
			if t1[j][i] <= j {
				t.Fatalf("column %d updates non-later column %d (cycle)", j, t1[j][i])
			}
		}
		if h1[j] < cfg.MinHeight || h1[j] > cfg.MaxHeight {
			t.Fatalf("height %d outside [%d,%d]", h1[j], cfg.MinHeight, cfg.MaxHeight)
		}
	}
}

func TestDataFootprintExceedsL2(t *testing.T) {
	// The test scale must stress a 64 kB L2 per the paper's Cholesky
	// analysis (re-fetch after conflict/capacity evictions).
	if f := DataFootprint(ConfigFor(workload.ScaleTest)); f < 2*64*1024 {
		t.Errorf("test-scale footprint %d bytes does not exceed 2x the 64 kB L2", f)
	}
}

func TestOwnerPartitioning(t *testing.T) {
	w := NewWithConfig(Config{Columns: 100, MinHeight: 4, MaxHeight: 8, MaxUpdates: 2, Seed: 1}, 4)
	if w.owner(0) != 0 || w.owner(99) != 3 {
		t.Errorf("owner bounds: %d, %d", w.owner(0), w.owner(99))
	}
	// Owners are monotone contiguous chunks.
	prev := 0
	for c := 0; c < 100; c++ {
		o := w.owner(c)
		if o < prev || o > prev+1 {
			t.Fatalf("owner(%d) = %d after %d", c, o, prev)
		}
		prev = o
	}
}

func TestProgramsValidation(t *testing.T) {
	m := machine(t, protocol.Baseline, 4)
	if _, err := NewWithConfig(Config{Columns: 2, MinHeight: 4, MaxHeight: 8}, 4).Programs(m); err == nil {
		t.Error("fewer columns than CPUs accepted")
	}
	if _, err := NewWithConfig(Config{Columns: 10, MinHeight: 8, MaxHeight: 4}, 4).Programs(m); err == nil {
		t.Error("inverted heights accepted")
	}
}

// TestAllColumnsFactored runs a small instance to completion and checks
// every column was processed exactly once (every dependency consumed).
func TestAllColumnsFactored(t *testing.T) {
	m := machine(t, protocol.LS, 4)
	cfg := Config{Columns: 120, MinHeight: 8, MaxHeight: 24, MaxUpdates: 3, Seed: 9}
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
}

// TestNoMigrationAtFourProcessors checks the §5.2 property the synthetic
// structure is built for: with owner-partitioned columns, load-store
// sequences on column data do not migrate.
func TestNoMigrationAtFourProcessors(t *testing.T) {
	m := machine(t, protocol.Baseline, 4)
	w := New(workload.ScaleTest, 4)
	progs, err := w.Programs(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	total := m.Sequences().Total()
	if total.LoadStoreWrites == 0 {
		t.Fatal("no load-store sequences")
	}
	if frac := total.MigratoryFrac(); frac > 0.1 {
		t.Errorf("migratory fraction = %.3f, want ~0", frac)
	}
}

// TestInvalidationShareGrowsWithProcessors reproduces the Figure 5 trend:
// the share of individual invalidations in the total invalidation traffic
// grows from 4 to 16 processors (task-queue and boundary contention).
func TestInvalidationShareGrowsWithProcessors(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-machine cholesky scaling in -short mode")
	}
	share := func(nodes int) float64 {
		m := machine(t, protocol.Baseline, nodes)
		w := New(workload.ScaleTest, nodes)
		progs, err := w.Programs(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		total := st.GlobalInv + st.Invalidations
		if total == 0 {
			return 0
		}
		return float64(st.Invalidations) / float64(total)
	}
	s4 := share(4)
	s16 := share(16)
	if !(s16 > s4) {
		t.Errorf("invalidation share: 4p=%.3f 16p=%.3f, want growth", s4, s16)
	}
}
