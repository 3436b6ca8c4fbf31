package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
// operations in place, without a scheduler step (the whole point of the
// optimization), and that the serial scheduler never does.
func TestRunAheadEngages(t *testing.T) {
	if got := schedulerStats(t, false).RunAheadOps(); got == 0 {
		t.Error("run-ahead scheduler serviced no operations in place")
	}
	if got := schedulerStats(t, true).RunAheadOps(); got != 0 {
		t.Errorf("serial scheduler serviced %d operations in place", got)
	}
}

// TestRunAheadServicesGlobalOpsInPlace pins the in-place rule: an
// operation that orders before every operation in the heap is serviced
// without a scheduler step, whatever the memory system does with it.
// CPU 0's write misses, its RMW and its block-straddling store all come
// long before CPU 1's only read, so each of CPU 0's operations after the
// first, which the first scheduler step pops, is serviced in place, and
// every statistic matches the serial run's.
func TestRunAheadServicesGlobalOpsInPlace(t *testing.T) {
	const misses = 64
	run := func(sched Sched) *Machine {
		cfg := testConfig(protocol.LS, protocol.Variant{})
		cfg.Sched = sched
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bs := memory.Addr(m.Layout().BlockSize)
		data := m.Alloc().AllocBlocks("data", misses+3)
		first := func(p *Proc) {
			for i := memory.Addr(0); i < misses; i++ {
				p.Write(data + i*bs)
			}
			p.RMW(data + misses*bs)
			p.WriteN(data+(misses+1)*bs+bs/2, uint32(bs)) // two blocks
		}
		late := func(p *Proc) {
			p.Compute(1_000_000)
			p.Read(data)
		}
		if err := m.Run([]Program{first, late}); err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		if err := m.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, ahead := run(SchedSerial), run(SchedRunAhead)
	if d := diffRuns(serial, ahead); d != "" {
		t.Fatal(d)
	}
	if got := ahead.Stats().CPUs[0].GlobalOps; got < misses+3 {
		t.Fatalf("CPU 0 made %d global operations, want at least %d", got, misses+3)
	}
	if got, want := ahead.RunAheadOps(), uint64(misses+1); got != want {
		t.Errorf("run-ahead serviced %d operations in place, want %d", got, want)
	}
}

// TestSchedulersBitIdentical compares every cycle- and traffic-level
// statistic between the serial and the run-ahead scheduler on the
// contended workload: run-ahead must service operations in exactly the
// serial order, so all simulated quantities must match bit for bit.
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
// run-ahead it may do so from the in-place path (runInline). Run must
// return that error and every program goroutine must exit.
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
				t.Error("the recorder never ran on the in-place path")
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestAbortAfterReturnNoGoroutineLeak: the scheduler step a processor
// takes after its program returns runs under the same recover as every
// other step, so a failure there ends the run with its error and no
// goroutine left behind. CPU 0 returns first; the operation that fails
// is CPU 1's only read, which CPU 0's goroutine services after its return.
// The failure is a Cancel hook reporting a deadline (polled on the
// 1024th operation) or a recorder cancelling on the second operation.
func TestAbortAfterReturnNoGoroutineLeak(t *testing.T) {
	for _, serial := range []bool{false, true} {
		for _, trigger := range []string{"cancel", "recorder"} {
			t.Run(fmt.Sprintf("serial=%v/%s", serial, trigger), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				cfg := testConfig(protocol.LS, protocol.Variant{})
				cfg.Sched = schedOf(serial)
				reads := 1
				if trigger == "cancel" {
					reads = 1023
					cfg.Cancel = func() error { return context.DeadlineExceeded }
				}
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ops := 0
				if trigger == "recorder" {
					m.SetRecorder(func(OpRecord) {
						if ops++; ops == 2 {
							panic(&CancelledError{Err: context.DeadlineExceeded})
						}
					})
				}
				first := func(p *Proc) {
					for i := 0; i < reads; i++ {
						p.Read(0)
					}
				}
				late := func(p *Proc) {
					p.Compute(1_000_000)
					p.Read(64)
				}
				err = m.Run([]Program{first, late})
				var cancelled *CancelledError
				if !errors.As(err, &cancelled) || !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("Run = %v, want a CancelledError for the deadline", err)
				}
				waitForGoroutines(t, baseline)
			})
		}
	}
}

// TestProloguesRunInCPUOrder: programs run one at a time, including the
// prologues before their first memory operation, and processors start
// in CPU order. Run under -race, an unsynchronized append from
// concurrent prologues would also be reported as a data race.
func TestProloguesRunInCPUOrder(t *testing.T) {
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serial=%v", serial), func(t *testing.T) {
			cfg := testConfig(protocol.Baseline, protocol.Variant{})
			cfg.Sched = schedOf(serial)
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var order []memory.NodeID
			prog := func(p *Proc) {
				order = append(order, p.ID())
				p.Read(memory.Addr(16 * int(p.ID())))
			}
			if err := m.Run([]Program{prog, prog, prog, prog}); err != nil {
				t.Fatal(err)
			}
			if want := []memory.NodeID{0, 1, 2, 3}; !slices.Equal(order, want) {
				t.Errorf("prologues ran in order %v, want %v", order, want)
			}
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
