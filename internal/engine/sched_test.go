package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
)

// contendedProgram is a moderately contended mixed workload used by the
// scheduler tests: enough hits for run-ahead to engage, enough sharing
// for the service order to matter.
func contendedProgram(m *Machine) Program {
	lock := NewLock(m.Alloc(), "lock")
	data := m.Alloc().AllocBlocks("data", 64)
	return func(p *Proc) {
		r := p.Rand()
		for i := 0; i < 200; i++ {
			a := data + memory.Addr(r.Intn(32)*16)
			switch r.Intn(5) {
			case 0:
				lock.Acquire(p)
				p.Read(a)
				p.Write(a)
				lock.Release(p)
			case 1:
				p.Write(a)
			default:
				p.Read(a)
				p.Read(a) // guaranteed local hit
			}
			p.Compute(r.Intn(40))
		}
	}
}

// schedOf maps the tests' serial flag to a scheduler.
func schedOf(serial bool) Sched {
	if serial {
		return SchedSerial
	}
	return SchedRunAhead
}

// schedulerStats runs the contended workload under the given scheduler
// and returns the machine for inspection.
func schedulerStats(t *testing.T, serial bool) *Machine {
	t.Helper()
	cfg := testConfig(protocol.LS, protocol.Variant{})
	cfg.Sched = schedOf(serial)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := contendedProgram(m)
	if err := m.Run([]Program{prog, prog, prog, prog}); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunAheadEngages checks that the default scheduler actually services
// operations inline under the lease (the whole point of the optimization)
// and that the serial scheduler never does.
func TestRunAheadEngages(t *testing.T) {
	if got := schedulerStats(t, false).RunAheadOps(); got == 0 {
		t.Error("run-ahead scheduler serviced no operations inline")
	}
	if got := schedulerStats(t, true).RunAheadOps(); got != 0 {
		t.Errorf("serial scheduler serviced %d operations inline", got)
	}
}

// TestSchedulersBitIdentical compares every cycle- and traffic-level
// statistic between the serial handshake scheduler and the run-ahead
// handoff scheduler on the contended workload: the run-ahead path must
// service operations in exactly the serial order, so all simulated
// quantities must match bit for bit.
func TestSchedulersBitIdentical(t *testing.T) {
	serial := schedulerStats(t, true)
	ahead := schedulerStats(t, false)

	ss, as := serial.Stats(), ahead.Stats()
	if ss.ExecTime() != as.ExecTime() {
		t.Errorf("exec time: serial %d, run-ahead %d", ss.ExecTime(), as.ExecTime())
	}
	if ss.TotalMsgs() != as.TotalMsgs() || ss.TotalBytes() != as.TotalBytes() {
		t.Errorf("traffic: serial %d msgs/%d B, run-ahead %d msgs/%d B",
			ss.TotalMsgs(), ss.TotalBytes(), as.TotalMsgs(), as.TotalBytes())
	}
	for i := range ss.CPUs {
		if ss.CPUs[i] != as.CPUs[i] {
			t.Errorf("CPU %d: serial %+v, run-ahead %+v", i, ss.CPUs[i], as.CPUs[i])
		}
	}
	if ss.GlobalReadMisses() != as.GlobalReadMisses() || ss.GlobalWrites() != as.GlobalWrites() {
		t.Errorf("global actions differ: serial (%d,%d), run-ahead (%d,%d)",
			ss.GlobalReadMisses(), ss.GlobalWrites(), as.GlobalReadMisses(), as.GlobalWrites())
	}
	if serial.Sequences().Total() != ahead.Sequences().Total() {
		t.Errorf("sequence totals: serial %+v, run-ahead %+v",
			serial.Sequences().Total(), ahead.Sequences().Total())
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (program goroutines may still be unwinding when Run returns).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeakOnPanic: a program panic must terminate every
// sibling program goroutine (they would otherwise block forever on their
// resume channels), under both schedulers, whether the panic happens
// after scheduling has started or already in the startup prologue.
func TestNoGoroutineLeakOnPanic(t *testing.T) {
	for _, serial := range []bool{false, true} {
		for _, early := range []bool{false, true} {
			name := fmt.Sprintf("serial=%v/early=%v", serial, early)
			t.Run(name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				cfg := testConfig(protocol.Baseline, protocol.Variant{})
				cfg.Sched = schedOf(serial)
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				spin := func(p *Proc) {
					for {
						p.Read(0)
						p.Compute(10)
					}
				}
				bomb := func(p *Proc) {
					if !early {
						for i := 0; i < 50; i++ {
							p.Read(16)
							p.Compute(5)
						}
					}
					panic("boom")
				}
				err = m.Run([]Program{spin, spin, bomb, spin})
				if err == nil || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("panic not propagated: %v", err)
				}
				waitForGoroutines(t, baseline)
			})
		}
	}
}

// TestRecorderCancelNoGoroutineLeak: a recorder may end a run by
// panicking with a *CancelledError, as a prefix capture does, and under
// run-ahead it may do so from the inline path. Run must return that
// error and every program goroutine must exit.
func TestRecorderCancelNoGoroutineLeak(t *testing.T) {
	errPrefix := errors.New("prefix captured")
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := testConfig(protocol.LS, protocol.Variant{})
			cfg.Sched = schedOf(serial)
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// CPU 0's repeated hits run ahead of the other CPUs, whose
			// first operations come a million cycles later.
			hits := func(p *Proc) {
				for i := 0; i < 100; i++ {
					p.Read(0)
				}
			}
			late := func(p *Proc) {
				p.Compute(1_000_000)
				p.Read(memory.Addr(64 * int(p.ID())))
			}
			n, inline := 0, uint64(0)
			m.SetRecorder(func(OpRecord) {
				if n++; n == 10 {
					inline = m.RunAheadOps()
					panic(&CancelledError{Err: errPrefix})
				}
			})
			err = m.Run([]Program{hits, late, late, late})
			if !errors.Is(err, errPrefix) {
				t.Fatalf("Run = %v, want the recorder's cancellation", err)
			}
			if !serial && inline == 0 {
				t.Error("the recorder never ran on the inline path")
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestNoGoroutineLeakOnMaxCycles: the livelock guard must likewise drain
// every program goroutine under both schedulers.
func TestNoGoroutineLeakOnMaxCycles(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := testConfig(protocol.Baseline, protocol.Variant{})
			cfg.Sched = schedOf(serial)
			cfg.MaxCycles = 100_000
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spin := func(p *Proc) {
				for {
					p.Read(memory.Addr(16 * int(p.ID())))
					p.Compute(10)
				}
			}
			err = m.Run([]Program{spin, spin, spin, spin})
			if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
				t.Fatalf("livelock guard did not fire: %v", err)
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestSerialMaxCyclesGuard mirrors TestMaxCyclesGuard on the serial path.
func TestSerialMaxCyclesGuard(t *testing.T) {
	cfg := testConfig(protocol.Baseline, protocol.Variant{})
	cfg.Sched = SchedSerial
	cfg.MaxCycles = 50_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run([]Program{func(p *Proc) {
		for {
			p.Read(0)
			p.Compute(100)
		}
	}})
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("livelock guard did not fire: %v", err)
	}
}

// TestOpHeapOrder pushes randomly ordered pending ops and checks the heap
// pops them in the scheduler's total service order: ascending clock, ties
// by CPU id.
func TestOpHeapOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	procs := make([]*Proc, 8)
	for i := range procs {
		procs[i] = &Proc{id: memory.NodeID(i)}
	}
	for trial := 0; trial < 50; trial++ {
		var h opHeap
		n := 1 + r.Intn(len(procs))
		perm := r.Perm(len(procs))[:n]
		ops := make([]*op, 0, n)
		for _, pi := range perm {
			o := &op{proc: procs[pi], at: uint64(r.Intn(5))} // ties likely
			ops = append(ops, o)
			h.push(o)
		}
		var prev *op
		for range ops {
			if h.min() != h.a[0] {
				t.Fatal("min disagrees with heap root")
			}
			o := h.pop()
			if prev != nil && opBefore(o, prev) {
				t.Fatalf("trial %d: popped (%d,%d) after (%d,%d)",
					trial, o.at, o.proc.id, prev.at, prev.proc.id)
			}
			prev = o
		}
		if h.pop() != nil || h.min() != nil {
			t.Fatal("heap not empty after popping all ops")
		}
	}
}
