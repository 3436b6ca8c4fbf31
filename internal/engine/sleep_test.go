package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/check"
	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
)

// syncCase is one machine and program shape for the sleeping-spinner
// tests. Its caches are small and two-way, so a woken spinner's later
// accesses evict by the LRU order its slept reads must leave as the
// serial loop's reads do.
type syncCase struct {
	nodes   int
	kind    protocol.Kind
	relaxed bool
	fs      bool // false-sharing tracking
	cancel  bool // a Cancel hook that never fires
	build   func(m *Machine) Program
}

func (c syncCase) String() string {
	return fmt.Sprintf("nodes=%d/%v/relaxed=%v/fs=%v/cancel=%v", c.nodes, c.kind, c.relaxed, c.fs, c.cancel)
}

func (c syncCase) config(sched Sched) Config {
	cfg := testConfig(c.kind, protocol.Variant{})
	cfg.Nodes = c.nodes
	cfg.L1 = cache.Config{Size: 256, Assoc: 2, BlockSize: 16, AccessTime: 1}
	cfg.L2 = cache.Config{Size: 2048, Assoc: 2, BlockSize: 16, AccessTime: 10}
	cfg.Sched = sched
	cfg.RelaxedWrites = c.relaxed
	cfg.TrackFalseSharing = c.fs
	if c.cancel {
		cfg.Cancel = func() error { return nil }
	}
	return cfg
}

// run runs the case's program on every node under sched.
func (c syncCase) run(t *testing.T, sched Sched) *Machine {
	t.Helper()
	m, err := NewMachine(c.config(sched))
	if err != nil {
		t.Fatal(err)
	}
	prog := c.build(m)
	progs := make([]Program, c.nodes)
	for i := range progs {
		progs[i] = prog
	}
	if err := m.Run(progs); err != nil {
		t.Fatalf("%v under %v: %v", c, sched, err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	return m
}

// diffRuns returns the first difference between two runs' statistics,
// sequence analysis and false-sharing classification, or "".
func diffRuns(serial, ahead *Machine) string {
	ss, as := serial.Stats(), ahead.Stats()
	for i := range ss.CPUs {
		if ss.CPUs[i] != as.CPUs[i] {
			return fmt.Sprintf("CPU %d: serial %+v, run-ahead %+v", i, ss.CPUs[i], as.CPUs[i])
		}
	}
	if ss.ExecTime() != as.ExecTime() {
		return fmt.Sprintf("exec time: serial %d, run-ahead %d", ss.ExecTime(), as.ExecTime())
	}
	if !reflect.DeepEqual(ss, as) {
		return fmt.Sprintf("statistics: serial %+v, run-ahead %+v", ss, as)
	}
	sq, aq := serial.Sequences(), ahead.Sequences()
	if sq.Sources != aq.Sources || sq.Distance != aq.Distance {
		return fmt.Sprintf("sequences: serial %+v %v, run-ahead %+v %v", sq.Sources, sq.Distance, aq.Sources, aq.Distance)
	}
	if sf, af := serial.FalseSharing(), ahead.FalseSharing(); sf != nil && sf.Misses != af.Misses {
		return fmt.Sprintf("false-sharing misses: serial %v, run-ahead %v", sf.Misses, af.Misses)
	}
	return ""
}

// splitBarrier is a barrier whose counter and sense word sit in blocks of
// their own, so an arrival does not take the sleepers' copies and they
// sleep until the sense flips. NewBarrier puts both words in one block.
func splitBarrier(a *memory.Allocator, parties, cpus int) *Barrier {
	return &Barrier{
		countAddr:  a.AllocBlocks("barrier", 1),
		senseAddr:  a.AllocBlocks("barrier", 1),
		parties:    parties,
		localSense: make([]bool, cpus),
	}
}

// lockHeavy: long critical sections under three locks, two of which
// share a block, with data in the L1 sets of the lock words.
func lockHeavy(m *Machine) Program {
	a := m.Alloc()
	locks := []*Lock{NewLock(a, "lock"), NewLock(a, "lock")}
	a.AllocBlocks("pad", 1)
	locks = append(locks, NewLock(a, "lock"))
	data := a.AllocBlocks("data", 32)
	return func(p *Proc) {
		r := p.Rand()
		for i := 0; i < 30; i++ {
			l := locks[r.Intn(len(locks))]
			l.Acquire(p)
			d := data + memory.Addr(r.Intn(32)*16)
			p.Read(d)
			p.Compute(r.Intn(300))
			p.Write(d)
			l.Release(p)
			p.Compute(r.Intn(80))
		}
	}
}

// barrierHeavy: skewed phases through a split barrier and a one-block
// barrier, each CPU writing its own word of a shared block per phase.
func barrierHeavy(m *Machine) Program {
	a := m.Alloc()
	n := m.Nodes()
	bars := []*Barrier{splitBarrier(a, n, n), NewBarrier(a, "barrier", n, n)}
	data := a.AllocBlocks("data", 8)
	return func(p *Proc) {
		r := p.Rand()
		for ph := 0; ph < 12; ph++ {
			p.Compute(int(p.ID())*40 + r.Intn(400))
			p.Write(data + memory.Addr(ph%8*16) + memory.Addr(p.ID()%4*4))
			bars[ph%2].Wait(p)
			p.Read(data + memory.Addr((ph+1)%8*16))
		}
	}
}

// mixed: lock critical sections between barrier phases.
func mixed(m *Machine) Program {
	a := m.Alloc()
	n := m.Nodes()
	bar := splitBarrier(a, n, n)
	lock := NewLock(a, "lock")
	data := a.AllocBlocks("data", 16)
	return func(p *Proc) {
		r := p.Rand()
		for ph := 0; ph < 6; ph++ {
			for i := 0; i < 3; i++ {
				lock.Acquire(p)
				p.RMW(data + memory.Addr(r.Intn(16)*16))
				p.Compute(r.Intn(150))
				lock.Release(p)
				p.Read(data + memory.Addr(r.Intn(16)*16))
			}
			bar.Wait(p)
		}
	}
}

// TestSleepingSpinnersMatchSerial: a spinner asleep off the heap must
// leave every statistic as the serial scheduler's plain spin loop does,
// on lock-heavy, barrier-heavy and mixed programs, with false-sharing
// tracking and a Cancel hook (which makes slept reads poll it) on and off.
func TestSleepingSpinnersMatchSerial(t *testing.T) {
	programs := []struct {
		name  string
		build func(*Machine) Program
	}{{"lock", lockHeavy}, {"barrier", barrierHeavy}, {"mixed", mixed}}
	for _, prog := range programs {
		for _, fs := range []bool{false, true} {
			for _, cancel := range []bool{false, true} {
				c := syncCase{nodes: 4, kind: protocol.LS, fs: fs, cancel: cancel, build: prog.build}
				t.Run(prog.name+"/"+c.String(), func(t *testing.T) {
					serial, ahead := c.run(t, SchedSerial), c.run(t, SchedRunAhead)
					if d := diffRuns(serial, ahead); d != "" {
						t.Fatal(d)
					}
					if ahead.sleptReads == 0 {
						t.Errorf("no spinner slept through a read (%d sleeps)", ahead.sleeps)
					}
					if serial.sleeps != 0 {
						t.Errorf("serial scheduler slept %d times", serial.sleeps)
					}
				})
			}
		}
	}
}

// randomSync builds a random lock and barrier program from r: every CPU
// runs the same number of barrier phases, with random critical sections,
// atomics and data accesses of skewed length in between.
func randomSync(r *rand.Rand) func(m *Machine) Program {
	phases := 2 + r.Intn(3)
	nlocks := 1 + r.Intn(3)
	split := r.Intn(2) == 0
	skew := 200 + r.Intn(400)
	return func(m *Machine) Program {
		a := m.Alloc()
		n := m.Nodes()
		bar := NewBarrier(a, "barrier", n, n)
		if split {
			bar = splitBarrier(a, n, n)
		}
		locks := make([]*Lock, nlocks)
		for i := range locks {
			locks[i] = NewLock(a, "lock")
		}
		data := a.AllocBlocks("data", 16)
		return func(p *Proc) {
			pr := p.Rand()
			for ph := 0; ph < phases; ph++ {
				for i := pr.Intn(4); i > 0; i-- {
					d := data + memory.Addr(pr.Intn(64)*4)
					switch pr.Intn(4) {
					case 0:
						l := locks[pr.Intn(nlocks)]
						l.Acquire(p)
						p.Write(d)
						p.Compute(pr.Intn(200))
						l.Release(p)
					case 1:
						p.RMW(d)
					case 2:
						p.Write(d)
					default:
						p.Read(d)
					}
				}
				p.Compute(int(p.ID())*skew/4 + pr.Intn(skew))
				bar.Wait(p)
			}
		}
	}
}

// TestSleepingSpinnersRandomDifferential runs 300 random lock and barrier
// programs on 2 to 16 CPUs under every protocol, with relaxed writes,
// false-sharing tracking and a Cancel hook drawn at random, and requires
// identical statistics from both schedulers and at least one sleep.
func TestSleepingSpinnersRandomDifferential(t *testing.T) {
	kinds := []protocol.Kind{protocol.Baseline, protocol.AD, protocol.LS}
	var sleeps, reads uint64
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := syncCase{
			nodes:   2 + r.Intn(15),
			kind:    kinds[r.Intn(len(kinds))],
			relaxed: r.Intn(2) == 0,
			fs:      r.Intn(2) == 0,
			cancel:  r.Intn(2) == 0,
			build:   randomSync(r),
		}
		serial, ahead := c.run(t, SchedSerial), c.run(t, SchedRunAhead)
		if d := diffRuns(serial, ahead); d != "" {
			t.Fatalf("seed %d (%v): %s", seed, c, d)
		}
		if ahead.sleeps == 0 {
			t.Errorf("seed %d (%v): no spinner slept", seed, c)
		}
		sleeps, reads = sleeps+ahead.sleeps, reads+ahead.sleptReads
	}
	t.Logf("%d sleeps, %d slept reads", sleeps, reads)
}

// TestSleepingLivelockGuardParity: when nothing can wake the sleepers —
// a lock never released, a barrier short of a party — they spin up to
// the livelock guard, and the run fails with the serial scheduler's error,
// naming the same CPU. In the lock case the holder's next operation lies
// past MaxCycles; in the barrier case the heap empties.
func TestSleepingLivelockGuardParity(t *testing.T) {
	cases := map[string]func(m *Machine) []Program{
		"unreleased lock": func(m *Machine) []Program {
			l := NewLock(m.Alloc(), "lock")
			holder := func(p *Proc) {
				l.Acquire(p)
				p.Compute(1_000_000)
				p.Read(l.Addr())
			}
			waiter := func(p *Proc) {
				p.Compute(int(p.ID()) * 7)
				l.Acquire(p)
			}
			return []Program{holder, waiter, waiter, waiter}
		},
		"missing party": func(m *Machine) []Program {
			b := splitBarrier(m.Alloc(), 4, 4)
			wait := func(p *Proc) {
				p.Compute(int(p.ID()) * 5)
				b.Wait(p)
			}
			return []Program{wait, wait, wait}
		},
	}
	for name, progs := range cases {
		t.Run(name, func(t *testing.T) {
			var errs [2]string
			for i, sched := range []Sched{SchedSerial, SchedRunAhead} {
				cfg := testConfig(protocol.LS, protocol.Variant{})
				cfg.Sched = sched
				cfg.MaxCycles = 200_000
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				err = m.Run(progs(m))
				if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
					t.Fatalf("%v: livelock guard did not fire: %v", sched, err)
				}
				errs[i] = err.Error()
				if sched == SchedRunAhead && m.sleptReads == 0 {
					t.Error("no spinner slept through a read")
				}
			}
			if errs[0] != errs[1] {
				t.Errorf("serial: %q, run-ahead: %q", errs[0], errs[1])
			}
		})
	}
}

// TestSleepersNoGoroutineLeak: sleeping spinners are on no heap, so a run
// that fails while they sleep must still wake and unwind them. A program
// panics while the others sleep at a barrier; and a Cancel hook fires
// inside a wake — at a release, at a copy loss and at the livelock
// guard — before the woken spinner is back on the heap. In each wake
// case the first poll, at the 1024th serviced operation, falls among the
// thousands of reads the spinner slept through.
func TestSleepersNoGoroutineLeak(t *testing.T) {
	cases := map[string]func(m *Machine) []Program{
		"panic": func(m *Machine) []Program {
			b := splitBarrier(m.Alloc(), 4, 4)
			data := m.Alloc().AllocBlocks("data", 1)
			wait := func(p *Proc) { b.Wait(p) }
			bomb := func(p *Proc) {
				p.Read(data)
				p.Compute(10_000)
				p.Read(data)
				if m.sleepers == 0 {
					panic("no spinner asleep")
				}
				panic("boom")
			}
			return []Program{wait, wait, wait, bomb}
		},
		"cancel at release": func(m *Machine) []Program {
			b := splitBarrier(m.Alloc(), 2, 2)
			wait := func(p *Proc) { b.Wait(p) }
			late := func(p *Proc) {
				p.Compute(100_000)
				b.Wait(p)
			}
			return []Program{wait, late}
		},
		"cancel at copy loss": func(m *Machine) []Program {
			a := m.Alloc()
			held, same := NewLock(a, "lock"), NewLock(a, "lock") // one block
			data := a.AllocBlocks("data", 1)
			holder := func(p *Proc) {
				held.Acquire(p)
				p.Compute(1000)
				p.Read(data)         // a miss: the holder, not the sleeper, holds the conch at the wake
				p.Compute(3_000_000) // the waiter's backoff reaches 1,024-2,047 cycles
				same.Acquire(p)
			}
			waiter := func(p *Proc) {
				p.Compute(10)
				held.Acquire(p)
			}
			return []Program{holder, waiter}
		},
		"cancel at livelock guard": func(m *Machine) []Program {
			b := splitBarrier(m.Alloc(), 3, 2)
			wait := func(p *Proc) { b.Wait(p) }
			return []Program{wait, wait}
		},
	}
	for name, progs := range cases {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := testConfig(protocol.LS, protocol.Variant{})
			var m *Machine
			inWake := false
			if strings.HasPrefix(name, "cancel") {
				cfg.Cancel = func() error {
					inWake = m.sleepers > 0 && m.sleptReads == 0
					return context.DeadlineExceeded
				}
			}
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = m.Run(progs(m))
			if name == "panic" {
				if err == nil || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("Run = %v, want the program's panic", err)
				}
			} else {
				var cancelled *CancelledError
				if !errors.As(err, &cancelled) {
					t.Fatalf("Run = %v, want a CancelledError", err)
				}
				if !inWake {
					t.Error("the Cancel hook did not fire inside a wake")
				}
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestObservedRunsKeepSpinnersOnHeap: a recorder or a checker sees every
// operation in service order, so with either attached no spinner sleeps.
func TestObservedRunsKeepSpinnersOnHeap(t *testing.T) {
	for _, observer := range []string{"recorder", "checker"} {
		t.Run(observer, func(t *testing.T) {
			c := syncCase{nodes: 4, kind: protocol.LS, build: mixed}
			cfg := c.config(SchedRunAhead)
			if observer == "checker" {
				cfg.CheckLevel = check.Touched
			}
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if observer == "recorder" {
				m.SetRecorder(func(OpRecord) {})
			}
			prog := c.build(m)
			if err := m.Run([]Program{prog, prog, prog, prog}); err != nil {
				t.Fatal(err)
			}
			if m.sleeps != 0 {
				t.Errorf("%d sleeps with a %s attached", m.sleeps, observer)
			}
		})
	}
}
