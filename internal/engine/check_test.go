package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"lsnuma/internal/check"
	"lsnuma/internal/fault"
	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
)

// memoryAddr maps a small index to a distinct block address.
func memoryAddr(i int) memory.Addr { return memory.Addr(i * 16) }

// checkedConfig is testConfig plus online invariant checking.
func checkedConfig(kind protocol.Kind, level check.Level, serial bool) Config {
	cfg := testConfig(kind, protocol.Variant{})
	cfg.CheckLevel = level
	cfg.CheckInterval = 64
	cfg.Sched = schedOf(serial)
	return cfg
}

// TestCheckedRunIsBitIdentical: enabling the online checker must not
// perturb the simulation — the checker only probes, so every simulated
// quantity must match the unchecked run bit for bit, under both
// schedulers and at both checking levels.
func TestCheckedRunIsBitIdentical(t *testing.T) {
	for _, serial := range []bool{false, true} {
		base := schedulerStats(t, serial)
		for _, level := range []check.Level{check.Touched, check.Full} {
			t.Run(fmt.Sprintf("serial=%v/%v", serial, level), func(t *testing.T) {
				cfg := checkedConfig(protocol.LS, level, serial)
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				prog := contendedProgram(m)
				if err := m.Run([]Program{prog, prog, prog, prog}); err != nil {
					t.Fatal(err)
				}
				bs, cs := base.Stats(), m.Stats()
				if bs.ExecTime() != cs.ExecTime() {
					t.Errorf("exec time: unchecked %d, checked %d", bs.ExecTime(), cs.ExecTime())
				}
				if bs.TotalMsgs() != cs.TotalMsgs() || bs.TotalBytes() != cs.TotalBytes() {
					t.Errorf("traffic: unchecked %d msgs/%d B, checked %d msgs/%d B",
						bs.TotalMsgs(), bs.TotalBytes(), cs.TotalMsgs(), cs.TotalBytes())
				}
				for i := range bs.CPUs {
					if bs.CPUs[i] != cs.CPUs[i] {
						t.Errorf("CPU %d: unchecked %+v, checked %+v", i, bs.CPUs[i], cs.CPUs[i])
					}
				}
			})
		}
	}
}

// TestViolationAbortNoGoroutineLeak: a coherence violation raised by the
// online checker must abort the run like any other failure — the error
// surfaces as the structured *check.CoherenceViolation and every program
// goroutine is torn down, under both schedulers. This exercises the abort
// path from inside the machine's own service hooks (not from a program),
// which is new with online checking.
func TestViolationAbortNoGoroutineLeak(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := checkedConfig(protocol.LS, check.Full, serial)
			cfg.CheckInterval = 1
			cfg.FaultInjector = fault.New(fault.ForgeOwner, 50, 1)
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prog := contendedProgram(m)
			err = m.Run([]Program{prog, prog, prog, prog})
			var v *check.CoherenceViolation
			if !errors.As(err, &v) {
				t.Fatalf("run returned %v, want a *check.CoherenceViolation", err)
			}
			if v.Invariant == "" || v.Detail == "" || v.State == "" {
				t.Errorf("violation not fully described: %+v", v)
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestPanicErrorStack: a program panic must surface as a *PanicError
// carrying the goroutine stack of the panicking program.
func TestPanicErrorStack(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	err := m.Run([]Program{func(p *Proc) {
		p.Read(0)
		panic("kaboom")
	}})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run returned %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("panic value = %v, want kaboom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}
