// Mutation coverage for the online invariant checker: every fault class
// the injector can produce must be detected by internal/check as a
// structured coherence violation within a bounded number of cycles. This
// is the proof that the checker is load-bearing — a checker that misses
// an injected lost message or leaked tag would miss the real bug too.
package fault_test

import (
	"errors"
	"fmt"
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/check"
	"lsnuma/internal/engine"
	"lsnuma/internal/fault"
	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
)

// injectionOp is when the injector arms itself: late enough that the
// machine has built up a rich mix of Shared, Dirty and Load-Store
// directory state for every class to corrupt.
const injectionOp = 200

// detectionBound is the maximum accepted gap between the injection cycle
// and the detection cycle. With CheckInterval=1 the full sweep runs in
// the same post-operation hook as the injector, so the bound is one
// operation's worth of simulated time.
const detectionBound = 5000

func testConfig(serial bool, inj *fault.Injector) engine.Config {
	sched := engine.SchedRunAhead
	if serial {
		sched = engine.SchedSerial
	}
	return engine.Config{
		Nodes:         4,
		L1:            cache.Config{Size: 4 * 1024, Assoc: 1, BlockSize: 16, AccessTime: 1},
		L2:            cache.Config{Size: 64 * 1024, Assoc: 1, BlockSize: 16, AccessTime: 10},
		PageSize:      4096,
		Timing:        engine.DefaultTiming(),
		Protocol:      protocol.New(protocol.LS, protocol.Variant{}),
		MaxCycles:     200_000_000,
		Sched:         sched,
		CheckLevel:    check.Full,
		CheckInterval: 1,
		FaultInjector: inj,
	}
}

// mixedPrograms builds per-CPU programs that keep all fault classes
// supplied with corruption targets: widely shared read-only blocks
// (Shared entries with several sharers), per-CPU read-modify-write blocks
// (Dirty / Load-Store entries with exclusive cache copies), and periodic
// writes to the shared region (invalidation traffic to drop).
func mixedPrograms(m *engine.Machine, cpus int) []engine.Program {
	shared := m.Alloc().AllocBlocks("shared", 16*16)
	priv := m.Alloc().AllocBlocks("priv", uint64(cpus)*16*16)
	progs := make([]engine.Program, cpus)
	for i := 0; i < cpus; i++ {
		i := i
		progs[i] = func(p *engine.Proc) {
			mine := priv + memory.Addr(i*16*16)
			for round := 0; round < 40; round++ {
				for b := 0; b < 16; b++ {
					p.Read(shared + memory.Addr(b*16))
				}
				for b := 0; b < 16; b++ {
					p.Read(mine + memory.Addr(b*16))
					p.Write(mine + memory.Addr(b*16))
				}
				if round%4 == 3 {
					p.Write(shared + memory.Addr(((i*4+round)%16)*16))
				}
			}
		}
	}
	return progs
}

// TestCheckerDetectsEveryFaultClass is the mutation-coverage matrix:
// each fault class, under both schedulers, must abort the run with a
// *check.CoherenceViolation, and detection must land within
// detectionBound cycles of the injection.
func TestCheckerDetectsEveryFaultClass(t *testing.T) {
	for _, serial := range []bool{false, true} {
		for _, class := range fault.Classes() {
			name := fmt.Sprintf("%v/serial=%v", class, serial)
			t.Run(name, func(t *testing.T) {
				inj := fault.New(class, injectionOp, 1)
				m, err := engine.NewMachine(testConfig(serial, inj))
				if err != nil {
					t.Fatal(err)
				}
				err = m.Run(mixedPrograms(m, 4))
				rep := inj.Report()
				if !rep.Fired {
					t.Fatalf("fault %v never fired (run error: %v)", class, err)
				}
				var v *check.CoherenceViolation
				if !errors.As(err, &v) {
					t.Fatalf("fault %v: run returned %v, want a *check.CoherenceViolation", class, err)
				}
				if v.Cycle < rep.Cycle || v.Cycle-rep.Cycle > detectionBound {
					t.Errorf("fault %v: injected at cycle %d, detected at cycle %d (bound %d)",
						class, rep.Cycle, v.Cycle, detectionBound)
				}
				t.Logf("%-16v injected op=%d cycle=%d (%s) -> detected %q at cycle %d (latency %d cycles)",
					class, rep.OpIndex, rep.Cycle, rep.Detail, v.Invariant, v.Cycle, v.Cycle-rep.Cycle)
			})
		}
	}
}

// TestNoFaultNoViolation is the matching sanity leg: the same workload
// under the same full-sweep checking, with no injector, must complete
// cleanly — the mutation matrix is meaningless if the checker also fires
// on healthy runs.
func TestNoFaultNoViolation(t *testing.T) {
	for _, serial := range []bool{false, true} {
		cfg := testConfig(serial, nil)
		m, err := engine.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(mixedPrograms(m, 4)); err != nil {
			t.Fatalf("serial=%v: clean run failed under full checking: %v", serial, err)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		class   fault.Class
		wantErr bool
	}{
		{"forge-owner", fault.ForgeOwner, false},
		{"drop-inval@500", fault.DropInvalidation, false},
		{"flip-presence@10:7", fault.FlipPresence, false},
		{"leak-ls-tag:3", fault.LeakLSTag, false},
		{"corrupt-home", fault.CorruptHomeState, false},
		{"silent-downgrade", fault.SilentDowngrade, false},
		{"bogus-class", 0, true},
		{"forge-owner@x", 0, true},
		{"forge-owner:x", 0, true},
	}
	for _, c := range cases {
		inj, err := fault.ParseSpec(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if inj.Class() != c.class {
			t.Errorf("ParseSpec(%q) class = %v, want %v", c.spec, inj.Class(), c.class)
		}
	}
}

// TestInjectionIsDeterministic: the same spec against the same workload
// must corrupt the same block the same way.
func TestInjectionIsDeterministic(t *testing.T) {
	reports := make([]fault.Report, 2)
	for i := range reports {
		inj := fault.New(fault.ForgeOwner, injectionOp, 7)
		m, err := engine.NewMachine(testConfig(false, inj))
		if err != nil {
			t.Fatal(err)
		}
		m.Run(mixedPrograms(m, 4)) // error expected; the report is the subject
		reports[i] = inj.Report()
	}
	if reports[0] != reports[1] {
		t.Errorf("same seed, different injections:\n  %+v\n  %+v", reports[0], reports[1])
	}
	inj := fault.New(fault.ForgeOwner, injectionOp, 8)
	m, err := engine.NewMachine(testConfig(false, inj))
	if err != nil {
		t.Fatal(err)
	}
	m.Run(mixedPrograms(m, 4))
	if r := inj.Report(); !r.Fired {
		t.Error("seed 8 injection never fired")
	}
}
