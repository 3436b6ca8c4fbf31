package micro

import (
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
		MaxCycles: 10_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runKind(t *testing.T, kind Kind, proto protocol.Kind) *engine.Machine {
	t.Helper()
	m := machine(t, proto)
	w := New(kind, workload.ScaleTest, 4)
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
	return m
}

func TestKindsAndNames(t *testing.T) {
	if len(Kinds()) != 4 {
		t.Fatalf("Kinds = %v", Kinds())
	}
	for _, k := range Kinds() {
		w := New(k, workload.ScaleTest, 4)
		if w.Name() != "micro-"+string(k) {
			t.Errorf("name = %q", w.Name())
		}
	}
	m := machine(t, protocol.Baseline)
	if _, err := NewWithConfig(Config{Kind: "bogus", Rounds: 1}, 4).Programs(m); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := NewWithConfig(Config{Kind: Migratory, Rounds: 0}, 4).Programs(m); err == nil {
		t.Error("zero rounds accepted")
	}
}

// TestMigratoryKernel: the datum is handed around — virtually all
// load-store sequences migrate, and both AD and LS eliminate most of the
// data-block ownership acquisitions.
func TestMigratoryKernel(t *testing.T) {
	base := runKind(t, Migratory, protocol.Baseline)
	ad := runKind(t, Migratory, protocol.AD)
	ls := runKind(t, Migratory, protocol.LS)

	seq := base.Sequences().Total()
	if seq.MigratoryFrac() < 0.8 {
		t.Errorf("migratory fraction = %.2f, want near 1", seq.MigratoryFrac())
	}
	if ad.Stats().EliminatedOwnership == 0 || ls.Stats().EliminatedOwnership == 0 {
		t.Errorf("eliminations: AD=%d LS=%d, want both > 0",
			ad.Stats().EliminatedOwnership, ls.Stats().EliminatedOwnership)
	}
	if base.Stats().EliminatedOwnership != 0 {
		t.Error("baseline eliminated ownership acquisitions")
	}
}

// TestPrivateEvictKernel: the paper-defining case — load-store sequences
// with no migration; LS eliminates (the LS bit survives in the directory
// across evictions), AD cannot (it never sees two sharers).
func TestPrivateEvictKernel(t *testing.T) {
	base := runKind(t, PrivateEvict, protocol.Baseline)
	ad := runKind(t, PrivateEvict, protocol.AD)
	ls := runKind(t, PrivateEvict, protocol.LS)

	seq := base.Sequences().Total()
	if seq.MigratoryFrac() > 0.01 {
		t.Errorf("migratory fraction = %.3f, want 0", seq.MigratoryFrac())
	}
	if seq.LoadStoreFrac() < 0.9 {
		t.Errorf("load-store fraction = %.2f, want near 1", seq.LoadStoreFrac())
	}
	if got := ad.Stats().EliminatedOwnership; got != 0 {
		t.Errorf("AD eliminated %d on non-migratory data", got)
	}
	lsElim := ls.Stats().EliminatedOwnership
	potential := base.Stats().GlobalWrites()
	if lsElim*2 < potential {
		t.Errorf("LS eliminated %d of ~%d re-fetch ownership acquisitions, want most",
			lsElim, potential)
	}
	if ls.Stats().ExecTime() >= base.Stats().ExecTime() {
		t.Errorf("LS exec %d not below baseline %d", ls.Stats().ExecTime(), base.Stats().ExecTime())
	}
}

// TestReadSharedKernel: no load-store sequences at all — LS must not
// inflate read misses much (its Shared-state reads never grant exclusive).
func TestReadSharedKernel(t *testing.T) {
	base := runKind(t, ReadShared, protocol.Baseline)
	ls := runKind(t, ReadShared, protocol.LS)

	seq := base.Sequences().Total()
	if seq.LoadStoreFrac() > 0.2 {
		t.Errorf("load-store fraction = %.2f, want near 0", seq.LoadStoreFrac())
	}
	b, l := base.Stats().GlobalReadMisses(), ls.Stats().GlobalReadMisses()
	if l > b*120/100 {
		t.Errorf("LS read misses %d vs baseline %d on read-shared data", l, b)
	}
	// Writes to read-shared data pay invalidations.
	if base.Stats().Invalidations == 0 {
		t.Error("no invalidations on read-shared kernel")
	}
}

// TestProducerConsumerKernel completes and exercises the failed-
// prediction path under LS (the producer's flag/buffer blocks get tagged
// by its rewrite sequences; the consumers' reads then de-tag them).
func TestProducerConsumerKernel(t *testing.T) {
	ls := runKind(t, ProducerConsumer, protocol.LS)
	if ls.Stats().FailedPredictions == 0 {
		t.Error("producer/consumer produced no NotLS events under LS")
	}
}

func TestDeterminism(t *testing.T) {
	a := runKind(t, Migratory, protocol.LS).Stats().ExecTime()
	b := runKind(t, Migratory, protocol.LS).Stats().ExecTime()
	if a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
}
