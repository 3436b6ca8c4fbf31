package oltp

import (
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/engine"
	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
	"lsnuma/internal/workload"
)

func machine(t *testing.T, kind protocol.Kind) *engine.Machine {
	t.Helper()
	m, err := engine.NewMachine(engine.Config{
		Nodes:     4,
		L1:        cache.Config{Size: 64 * 1024, Assoc: 2, BlockSize: 32, AccessTime: 1},
		L2:        cache.Config{Size: 512 * 1024, Assoc: 1, BlockSize: 32, AccessTime: 10},
		PageSize:  4096,
		Protocol:  protocol.New(kind, protocol.Variant{}),
		MaxCycles: 50_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func run(t *testing.T, kind protocol.Kind, cfg Config) (*OLTP, *engine.Machine) {
	t.Helper()
	m := machine(t, kind)
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
	return w, m
}

func smallCfg() Config {
	c := ConfigFor(workload.ScaleTest)
	c.TxPerCPU = 40
	return c
}

func TestConfigScales(t *testing.T) {
	paper := ConfigFor(workload.ScalePaper)
	if paper.Branches != 40 {
		t.Errorf("paper scale branches = %d, want the paper's 40 (TPC-B)", paper.Branches)
	}
	test := ConfigFor(workload.ScaleTest)
	if test.TxPerCPU >= paper.TxPerCPU {
		t.Error("test scale not smaller than paper scale")
	}
}

func TestProgramsValidation(t *testing.T) {
	m := machine(t, protocol.Baseline)
	if _, err := NewWithConfig(Config{Branches: 0, TxPerCPU: 10}, 4).Programs(m); err == nil {
		t.Error("zero branches accepted")
	}
	if _, err := NewWithConfig(Config{Branches: 4, TxPerCPU: 0}, 4).Programs(m); err == nil {
		t.Error("zero transactions accepted")
	}
}

// TestBalanceConservation checks TPC-B semantics: every transaction adds
// the same delta to one account, one teller and one branch, so the table
// sums must agree after any interleaving.
func TestBalanceConservation(t *testing.T) {
	w, _ := run(t, protocol.LS, smallCfg())
	acc, tel, br := w.Balances()
	var sa, st, sb int64
	for _, v := range acc {
		sa += v
	}
	for _, v := range tel {
		st += v
	}
	for _, v := range br {
		sb += v
	}
	if sa != st || st != sb {
		t.Errorf("sums diverged: accounts=%d tellers=%d branches=%d", sa, st, sb)
	}
	if w.CommittedTx != 4*int64(smallCfg().TxPerCPU) {
		t.Errorf("committed %d transactions, want %d", w.CommittedTx, 4*smallCfg().TxPerCPU)
	}
}

// TestAllSourceClassesPresent verifies every Table 2 source class issues
// global writes.
func TestAllSourceClassesPresent(t *testing.T) {
	_, m := run(t, protocol.Baseline, smallCfg())
	seq := m.Sequences()
	for s := memory.Source(0); s < memory.NumSources; s++ {
		if seq.Sources[s].GlobalWrites == 0 {
			t.Errorf("source %v produced no global writes", s)
		}
		if seq.Sources[s].LoadStoreWrites == 0 {
			t.Errorf("source %v produced no load-store sequences", s)
		}
	}
}

// TestStreamProperties checks the Table 2 stream shape on the baseline
// protocol: a large minority of global writes are load-store sequences and
// roughly half of those migrate.
func TestStreamProperties(t *testing.T) {
	_, m := run(t, protocol.Baseline, ConfigFor(workload.ScaleTest))
	total := m.Sequences().Total()
	if f := total.LoadStoreFrac(); f < 0.25 || f > 0.8 {
		t.Errorf("load-store fraction = %.3f (paper: 0.42)", f)
	}
	if f := total.MigratoryFrac(); f < 0.25 || f > 0.75 {
		t.Errorf("migratory fraction = %.3f (paper: 0.47)", f)
	}
}

func TestDeterministic(t *testing.T) {
	_, m1 := run(t, protocol.AD, smallCfg())
	_, m2 := run(t, protocol.AD, smallCfg())
	if m1.Stats().ExecTime() != m2.Stats().ExecTime() {
		t.Errorf("nondeterministic: %d vs %d", m1.Stats().ExecTime(), m2.Stats().ExecTime())
	}
	if m1.Stats().TotalMsgs() != m2.Stats().TotalMsgs() {
		t.Error("message counts nondeterministic")
	}
}

func TestBalancesBeforeRun(t *testing.T) {
	w := NewWithConfig(smallCfg(), 4)
	if a, b, c := w.Balances(); a != nil || b != nil || c != nil {
		t.Error("Balances before Programs should be nil")
	}
}
