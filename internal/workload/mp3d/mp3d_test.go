package mp3d

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
		MaxCycles: 2_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigScales(t *testing.T) {
	test := ConfigFor(workload.ScaleTest)
	paper := ConfigFor(workload.ScalePaper)
	if paper.Particles != 10000 || paper.Steps != 10 {
		t.Errorf("paper scale = %+v, want 10k particles / 10 steps", paper)
	}
	if test.Particles >= paper.Particles {
		t.Error("test scale not smaller than paper scale")
	}
	small := ConfigFor(workload.ScaleSmall)
	if small.Particles <= test.Particles || small.Particles >= paper.Particles {
		t.Errorf("small scale %d not between test and paper", small.Particles)
	}
}

func TestProgramsValidation(t *testing.T) {
	m := machine(t, protocol.Baseline)
	w := NewWithConfig(Config{Particles: 2, Steps: 1, X: 4, Y: 4, Z: 4}, 4)
	if _, err := w.Programs(m); err == nil {
		t.Error("fewer particles than CPUs accepted")
	}
	w = NewWithConfig(Config{Particles: 100, Steps: 1, X: 0, Y: 4, Z: 4}, 4)
	if _, err := w.Programs(m); err == nil {
		t.Error("zero-dimension space array accepted")
	}
}

func TestRunsToCompletion(t *testing.T) {
	m := machine(t, protocol.LS)
	w := New(workload.ScaleTest, 4)
	progs, err := w.Programs(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 4 {
		t.Fatalf("got %d programs", len(progs))
	}
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Error(err)
	}
	st := m.Stats()
	if st.Sum().Stores == 0 {
		t.Error("no stores executed")
	}
	// Cell updates dominate the sharing: the sequence detector must see
	// substantial migratory behaviour (Gupta & Weber's MP3D result).
	total := m.Sequences().Total()
	if total.LoadStoreWrites == 0 {
		t.Fatal("no load-store sequences detected")
	}
	if total.MigratoryFrac() < 0.2 {
		t.Errorf("migratory fraction = %.2f, want substantial", total.MigratoryFrac())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	runOnce := func() uint64 {
		m := machine(t, protocol.AD)
		w := New(workload.ScaleTest, 4)
		progs, err := w.Programs(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		return m.Stats().ExecTime()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
}

func TestNameAndRegistryCtor(t *testing.T) {
	if New(workload.ScaleTest, 4).Name() != "mp3d" {
		t.Error("name wrong")
	}
}
