package engine

import (
	"strings"
	"testing"

	"lsnuma/internal/cache"
	"lsnuma/internal/directory"
	"lsnuma/internal/memory"
	"lsnuma/internal/protocol"
)

// testConfig returns a 4-node machine with caches large enough to avoid
// replacements, 16 B blocks, and the default timing.
func testConfig(kind protocol.Kind, v protocol.Variant) Config {
	return Config{
		Nodes:     4,
		L1:        cache.Config{Size: 4 * 1024, Assoc: 1, BlockSize: 16, AccessTime: 1},
		L2:        cache.Config{Size: 64 * 1024, Assoc: 1, BlockSize: 16, AccessTime: 10},
		PageSize:  4096,
		Protocol:  protocol.New(kind, v),
		MaxCycles: 200_000_000,
	}
}

func newTestMachine(t *testing.T, kind protocol.Kind, v protocol.Variant) *Machine {
	t.Helper()
	m, err := NewMachine(testConfig(kind, v))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func run(t *testing.T, m *Machine, progs ...Program) {
	t.Helper()
	if err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(protocol.Baseline, protocol.Variant{})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Nodes = MaxNodes + 1 },
		func(c *Config) { c.DirFormat = directory.Format{Kind: directory.CoarseVector, Gran: c.Nodes + 1} },
		func(c *Config) { c.L1.BlockSize = 32 },
		func(c *Config) { c.L1.Size = 0 },
		func(c *Config) { c.L2.Size = 0 },
		func(c *Config) { c.L1.Size = 2 * c.L2.Size }, // breaks inclusion
		func(c *Config) { c.PageSize = 1000 },
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.PageSize = 8 },
		func(c *Config) { c.Protocol = nil },
	}
	for i, mutate := range cases {
		c := testConfig(protocol.Baseline, protocol.Variant{})
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestCompositeLatencies checks that the composite access latencies land
// near the paper's Table 1 targets: local ≈ 100, home ≈ 220, remote
// (read-on-dirty, 4 network hops) ≈ 420 cycles.
func TestCompositeLatencies(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	localAddr := memory.Addr(0)     // page 0 → home node 0
	homeAddr := memory.Addr(4096)   // page 1 → home node 1
	remoteAddr := memory.Addr(8192) // page 2 → home node 2

	var localLat, homeLat, remoteLat uint64
	p0 := func(p *Proc) {
		before := p.Clock()
		p.Read(localAddr)
		localLat = p.Clock() - before

		before = p.Clock()
		p.Read(homeAddr)
		homeLat = p.Clock() - before

		// Let P3 dirty remoteAddr first.
		p.Compute(100_000)
		before = p.Clock()
		p.Read(remoteAddr)
		remoteLat = p.Clock() - before
	}
	p3 := func(p *Proc) {
		p.Write(remoteAddr) // write miss → Dirty at node 3, home node 2
	}
	run(t, m, p0, nil, nil, p3)

	within := func(name string, got, want uint64) {
		lo, hi := want*85/100, want*115/100
		if got < lo || got > hi {
			t.Errorf("%s latency = %d, want %d ± 15%%", name, got, want)
		}
	}
	within("local", localLat, 100)
	within("home", homeLat, 220)
	within("remote read-on-dirty", remoteLat, 420)
}

func TestReadThenHit(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	var missLat, hitLat uint64
	run(t, m, func(p *Proc) {
		before := p.Clock()
		p.Read(0)
		missLat = p.Clock() - before
		before = p.Clock()
		p.Read(0)
		hitLat = p.Clock() - before
	})
	if hitLat != 1 {
		t.Errorf("L1 hit latency = %d, want 1", hitLat)
	}
	if missLat <= hitLat {
		t.Errorf("miss latency %d not greater than hit latency %d", missLat, hitLat)
	}
	st := m.Stats()
	if st.CPUs[0].Loads != 2 || st.CPUs[0].L1Hits != 1 {
		t.Errorf("counters = %+v", st.CPUs[0])
	}
	if st.GlobalReadMisses() != 1 || st.ReadMisses[0] != 1 {
		t.Errorf("read misses = %v", st.ReadMisses)
	}
}

func TestBaselineUpgradeCountsGlobalInv(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	run(t, m, func(p *Proc) {
		p.Read(0)
		p.Write(0) // upgrade of the Shared copy
		p.Write(0) // hit on Modified
	})
	st := m.Stats()
	if st.GlobalInv != 1 {
		t.Errorf("GlobalInv = %d, want 1", st.GlobalInv)
	}
	if st.GlobalWriteMisses != 0 {
		t.Errorf("GlobalWriteMisses = %d, want 0", st.GlobalWriteMisses)
	}
	if st.CPUs[0].WriteStall == 0 {
		t.Error("upgrade produced no write stall")
	}
	e := m.Directory().Entry(0)
	if e.State != directory.Dirty || e.Owner != 0 {
		t.Errorf("directory after upgrade = %+v", e)
	}
}

func TestWriteMissToUncached(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	run(t, m, func(p *Proc) {
		p.Write(64)
	})
	st := m.Stats()
	if st.GlobalWriteMisses != 1 || st.GlobalInv != 0 {
		t.Errorf("write-miss counters: misses=%d inv=%d", st.GlobalWriteMisses, st.GlobalInv)
	}
	if m.Hierarchy(0).State(64) != cache.Modified {
		t.Error("write miss did not install Modified copy")
	}
}

// TestLSStateDiagram walks the home-node state machine of the paper's
// Figure 1 through the engine, asserting every major transition.
func TestLSStateDiagram(t *testing.T) {
	m := newTestMachine(t, protocol.LS, protocol.Variant{})
	X := memory.Addr(0)
	dir := m.Directory()

	type check struct {
		name  string
		state directory.HomeState
		ls    bool
	}
	var checks []check
	record := func(name string, want directory.HomeState, wantLS bool) {
		e := dir.Entry(X)
		checks = append(checks, check{name, e.State, e.LS})
		if e.State != want || e.LS != wantLS {
			t.Errorf("%s: state=%v LS=%v, want state=%v LS=%v", name, e.State, e.LS, want, wantLS)
		}
	}

	step := make(chan int) // host-side phase sequencing via simulated compute
	_ = step

	p0 := func(p *Proc) {
		p.Read(X) // Uncached --Read(LS=0)--> Shared
		record("Uncached+Read(LS=0)", directory.Shared, false)
		p.Write(X) // Shared --Write(by LR)--> Dirty, tag LS
		record("Shared+Write(by LR)", directory.Dirty, true)
	}
	p1 := func(p *Proc) {
		p.Compute(20_000) // let P0 finish
		p.Read(X)         // Dirty --Read(LS=1)--> Load-Store (exclusive grant)
		record("Dirty+Read(LS=1)", directory.Excl, true)
		if got := m.Hierarchy(1).State(X); got != cache.LStemp {
			t.Errorf("P1 cache state after exclusive grant = %v, want LStemp", got)
		}
		p.Write(X) // silent promotion; home stays Load-Store
		record("LoadStore+Write(by owner)", directory.Excl, true)
		if got := m.Hierarchy(1).State(X); got != cache.Modified {
			t.Errorf("P1 cache state after promotion = %v, want Modified", got)
		}
	}
	p2 := func(p *Proc) {
		p.Compute(40_000) // let P1 finish
		p.Read(X)         // dirty-exclusive, LS=1 --> migrate exclusively to P2
		record("LoadStore(dirty)+Read(LS=1)", directory.Excl, true)
		if got := m.Hierarchy(2).State(X); got != cache.LStemp {
			t.Errorf("P2 cache state = %v, want LStemp", got)
		}
		// P2 never writes: the prediction fails when P3 reads.
	}
	p3 := func(p *Proc) {
		p.Compute(60_000)
		p.Read(X) // foreign read of clean exclusive --NotLS--> Shared, de-tag
		record("LoadStore(clean)+foreign Read → NotLS", directory.Shared, false)
		e := dir.Entry(X)
		if !e.Sharers.Has(2) || !e.Sharers.Has(3) || e.Sharers.Count() != 2 {
			t.Errorf("sharers after NotLS = %b, want {2,3}", e.Sharers)
		}
		p.Write(X) // Shared --Write(by LR=3)--> Dirty, tag again
		record("Shared+Write(by LR)", directory.Dirty, true)
	}
	run(t, m, p0, p1, p2, p3)

	st := m.Stats()
	if st.EliminatedOwnership != 1 {
		t.Errorf("EliminatedOwnership = %d, want 1 (P1's silent promotion)", st.EliminatedOwnership)
	}
	if st.FailedPredictions != 1 {
		t.Errorf("FailedPredictions = %d, want 1 (P3's NotLS)", st.FailedPredictions)
	}
	if st.ExclusiveGrants != 2 {
		t.Errorf("ExclusiveGrants = %d, want 2 (P1 and P2)", st.ExclusiveGrants)
	}
	if len(checks) != 7 {
		t.Errorf("executed %d checks, want 7 (phase interleaving broke)", len(checks))
	}
}

func TestLSWriteMissDetagsThroughEngine(t *testing.T) {
	m := newTestMachine(t, protocol.LS, protocol.Variant{})
	X := memory.Addr(0)
	p0 := func(p *Proc) {
		p.Read(X)
		p.Write(X) // tags LS
	}
	p1 := func(p *Proc) {
		p.Compute(20_000)
		p.Write(X) // write miss from non-holder → de-tag (Fig. 1 "Write (not by LR)")
	}
	run(t, m, p0, p1)
	e := m.Directory().Entry(X)
	if e.LS {
		t.Error("write miss did not de-tag the block")
	}
	if e.State != directory.Dirty || e.Owner != 1 {
		t.Errorf("directory = %+v", e)
	}
}

func TestDefaultTaggedColdReadExclusive(t *testing.T) {
	m := newTestMachine(t, protocol.LS, protocol.Variant{DefaultTagged: true})
	run(t, m, func(p *Proc) {
		p.Read(0) // Uncached --Read(LS=1)--> Load-Store
		if got := m.Hierarchy(0).State(0); got != cache.LStemp {
			t.Errorf("cache state after default-tagged cold read = %v", got)
		}
		p.Write(0)
	})
	st := m.Stats()
	if st.ExclusiveGrants != 1 || st.EliminatedOwnership != 1 {
		t.Errorf("grants=%d eliminated=%d, want 1/1", st.ExclusiveGrants, st.EliminatedOwnership)
	}
	if st.GlobalWrites() != 0 {
		t.Errorf("GlobalWrites = %d, want 0", st.GlobalWrites())
	}
}

// TestMigrationPingPong runs the canonical migratory pattern (alternating
// read-modify-writes by two processors) under all three protocols and
// checks the paper's core result ordering: LS and AD eliminate the
// ownership acquisitions that Baseline pays for, and total traffic obeys
// LS ≤ AD < Baseline.
func TestMigrationPingPong(t *testing.T) {
	const rounds = 50
	results := map[protocol.Kind]*Machine{}
	for _, kind := range []protocol.Kind{protocol.Baseline, protocol.AD, protocol.LS} {
		m := newTestMachine(t, kind, protocol.Variant{})
		turn := m.Alloc().Alloc("turn", memory.WordSize, 0)
		turns := 0
		data := m.Alloc().AllocBlocks("data", 16)
		prog := func(self int) Program {
			return func(p *Proc) {
				for i := 0; i < rounds; i++ {
					for {
						p.Read(turn) // poll, then load the value tested
						p.Read(turn)
						if turns%2 == self {
							break
						}
						p.Compute(8)
					}
					p.Read(data)  // load...
					p.Compute(10) // ...modify...
					p.Write(data) // ...store: a load-store sequence
					p.RMW(turn)   // fetch-and-increment the turn
					turns++
				}
			}
		}
		if err := m.Run([]Program{prog(0), prog(1)}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := m.CheckCoherence(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		results[kind] = m
	}

	base, ad, ls := results[protocol.Baseline].Stats(), results[protocol.AD].Stats(), results[protocol.LS].Stats()
	if base.EliminatedOwnership != 0 {
		t.Errorf("baseline eliminated %d ownerships", base.EliminatedOwnership)
	}
	if ad.EliminatedOwnership == 0 {
		t.Error("AD eliminated no ownership acquisitions on migratory data")
	}
	if ls.EliminatedOwnership == 0 {
		t.Error("LS eliminated no ownership acquisitions on migratory data")
	}
	if ls.EliminatedOwnership < ad.EliminatedOwnership {
		t.Errorf("LS eliminated %d < AD %d", ls.EliminatedOwnership, ad.EliminatedOwnership)
	}
	// Write-related traffic: LS ≤ AD < Baseline.
	bw := base.ClassMsgs()[1]
	aw := ad.ClassMsgs()[1]
	lw := ls.ClassMsgs()[1]
	if !(lw <= aw && aw < bw) {
		t.Errorf("write-class messages: LS=%d AD=%d Base=%d, want LS ≤ AD < Base", lw, aw, bw)
	}
	// The sequence detector must classify the data accesses as migratory.
	seq := results[protocol.LS].Sequences()
	total := seq.Total()
	if total.LoadStoreWrites == 0 || total.MigratoryWrites == 0 {
		t.Errorf("sequence detection: %+v", total)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	m := newTestMachine(t, protocol.LS, protocol.Variant{})
	lock := NewLock(m.Alloc(), "lock")
	shared := m.Alloc().Alloc("shared", memory.WordSize, 0)
	count := 0
	inCS := 0
	violations := 0
	const perCPU = 25
	prog := func(p *Proc) {
		for i := 0; i < perCPU; i++ {
			lock.Acquire(p)
			inCS++
			if inCS != 1 {
				violations++
			}
			p.RMW(shared)
			count++
			p.Compute(50)
			inCS--
			lock.Release(p)
			p.Compute(p.Rand().Intn(100))
		}
	}
	run(t, m, prog, prog, prog, prog)
	if violations != 0 {
		t.Errorf("%d mutual-exclusion violations", violations)
	}
	if count != 4*perCPU {
		t.Errorf("counter = %d, want %d", count, 4*perCPU)
	}
	if lock.Acquisitions != 4*perCPU {
		t.Errorf("acquisitions = %d, want %d", lock.Acquisitions, 4*perCPU)
	}
}

func TestBarrierPhases(t *testing.T) {
	m := newTestMachine(t, protocol.LS, protocol.Variant{})
	const phases = 5
	bar := NewBarrier(m.Alloc(), "barrier", 4, 4)
	phase := make([]int, 4)
	prog := func(p *Proc) {
		for ph := 0; ph < phases; ph++ {
			p.Compute(10 + int(p.ID())*137) // skewed arrival
			phase[p.ID()] = ph
			bar.Wait(p)
			// After the barrier, every CPU must have recorded this phase.
			for cpu, got := range phase {
				if got < ph {
					// Report once; cannot t.Fatal from program goroutine.
					panic("barrier: CPU " + string(rune('0'+cpu)) + " behind")
				}
			}
		}
	}
	run(t, m, prog, prog, prog, prog)
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (uint64, uint64, uint64) {
		m := newTestMachine(t, protocol.LS, protocol.Variant{})
		lock := NewLock(m.Alloc(), "lock")
		data := m.Alloc().AllocBlocks("data", 256)
		prog := func(p *Proc) {
			r := p.Rand()
			for i := 0; i < 100; i++ {
				a := data + memory.Addr(r.Intn(16)*16)
				if r.Intn(3) == 0 {
					lock.Acquire(p)
					p.Read(a)
					p.Write(a)
					lock.Release(p)
				} else {
					p.Read(a)
				}
				p.Compute(r.Intn(50))
			}
		}
		run(t, m, prog, prog, prog, prog)
		st := m.Stats()
		return st.ExecTime(), st.TotalMsgs(), st.GlobalWrites()
	}
	e1, m1, w1 := runOnce()
	e2, m2, w2 := runOnce()
	if e1 != e2 || m1 != m2 || w1 != w2 {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", e1, m1, w1, e2, m2, w2)
	}
}

// TestCoherenceUnderRandomTraffic hammers a small shared region from all
// four CPUs under each protocol and validates the machine-wide coherence
// invariant afterwards (and that the run terminates).
func TestCoherenceUnderRandomTraffic(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.Baseline, protocol.AD, protocol.LS} {
		for _, v := range []protocol.Variant{{}, {DefaultTagged: true}, {KeepOnWriteMiss: true}, {TagHysteresis: 2, DetagHysteresis: 2}} {
			m := newTestMachine(t, kind, v)
			region := m.Alloc().AllocBlocks("region", 512)
			prog := func(p *Proc) {
				r := p.Rand()
				for i := 0; i < 400; i++ {
					a := region + memory.Addr(r.Intn(128)*4)
					switch r.Intn(4) {
					case 0:
						p.Write(a)
					case 1:
						p.RMW(a)
					default:
						p.Read(a)
					}
				}
			}
			if err := m.Run([]Program{prog, prog, prog, prog}); err != nil {
				t.Fatalf("%v %v: %v", kind, v, err)
			}
			if err := m.CheckCoherence(); err != nil {
				t.Errorf("%v %v: %v", kind, v, err)
			}
		}
	}
}

// TestEvictionWritebackUpdatesDirectory forces L2 conflict evictions and
// checks the directory returns to Uncached with writeback traffic counted.
func TestEvictionWritebackUpdatesDirectory(t *testing.T) {
	cfg := testConfig(protocol.Baseline, protocol.Variant{})
	cfg.L1 = cache.Config{Size: 64, Assoc: 1, BlockSize: 16, AccessTime: 1}
	cfg.L2 = cache.Config{Size: 256, Assoc: 1, BlockSize: 16, AccessTime: 10} // 16 lines
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Use page 1 (home = node 1) so the writebacks are remote and counted
	// as traffic; local messages are free and uncounted by design.
	base := memory.Addr(4096)
	run(t, m, func(p *Proc) {
		// Two L2-conflicting dirty blocks: 256 bytes apart.
		p.Write(base)
		p.Write(base + 256) // evicts the first dirty block → writeback
		p.Write(base + 512) // evicts the second → writeback
	})
	e0 := m.Directory().Entry(base)
	if e0.State != directory.Uncached {
		t.Errorf("evicted dirty block directory state = %v", e0.State)
	}
	st := m.Stats()
	if st.Msgs[11] == 0 { // MsgWriteback
		t.Error("no writeback messages counted")
	}
}

func TestReplacementOfSharedSendsHint(t *testing.T) {
	cfg := testConfig(protocol.Baseline, protocol.Variant{})
	cfg.L1 = cache.Config{Size: 64, Assoc: 1, BlockSize: 16, AccessTime: 1}
	cfg.L2 = cache.Config{Size: 256, Assoc: 1, BlockSize: 16, AccessTime: 10}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(t, m, func(p *Proc) {
		p.Read(0)
		p.Read(256) // evicts Shared block 0 → replacement hint
	})
	if m.Directory().Entry(0).State != directory.Uncached {
		t.Error("replaced shared block not Uncached at home")
	}
}

func TestRunTwiceFails(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	if err := m.Run([]Program{func(p *Proc) { p.Read(0) }}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run([]Program{func(p *Proc) {}}); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestTooManyProgramsFails(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	progs := make([]Program, 5)
	for i := range progs {
		progs[i] = func(p *Proc) {}
	}
	if err := m.Run(progs); err == nil {
		t.Fatal("5 programs on 4 nodes accepted")
	}
}

func TestProgramPanicPropagates(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	err := m.Run([]Program{func(p *Proc) {
		p.Read(0)
		panic("boom")
	}})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not propagated: %v", err)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfg := testConfig(protocol.Baseline, protocol.Variant{})
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

func TestSourceAttribution(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	run(t, m, func(p *Proc) {
		p.SetSource(memory.SrcOS)
		p.Read(0)
		p.Write(0)
		p.SetSource(memory.SrcApp)
		p.Read(64)
		p.Write(64)
	})
	seq := m.Sequences()
	if seq.Sources[memory.SrcOS].LoadStoreWrites != 1 {
		t.Errorf("OS load-store writes = %d", seq.Sources[memory.SrcOS].LoadStoreWrites)
	}
	if seq.Sources[memory.SrcApp].LoadStoreWrites != 1 {
		t.Errorf("app load-store writes = %d", seq.Sources[memory.SrcApp].LoadStoreWrites)
	}
}

func TestRMWIsAtomicLoadStore(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	run(t, m, func(p *Proc) {
		p.RMW(0)
	})
	st := m.Stats()
	if st.CPUs[0].Loads != 1 || st.CPUs[0].Stores != 1 {
		t.Errorf("RMW load/store counts = %d/%d", st.CPUs[0].Loads, st.CPUs[0].Stores)
	}
	// The RMW is a load-store sequence by definition.
	if m.Sequences().Total().LoadStoreWrites != 1 {
		t.Errorf("RMW not classified as load-store sequence")
	}
}

func TestComputeAccumulatesBusy(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	run(t, m, func(p *Proc) {
		p.Compute(123)
		p.Compute(0)
		p.Compute(-5)
	})
	if got := m.Stats().CPUs[0].Busy; got != 123 {
		t.Errorf("busy = %d, want 123", got)
	}
}

func TestMultiBlockAccessSplits(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	run(t, m, func(p *Proc) {
		p.ReadN(12, 8) // straddles blocks 0 and 16
	})
	if got := m.Stats().GlobalReadMisses(); got != 2 {
		t.Errorf("straddling read caused %d misses, want 2", got)
	}
}

func TestIdleNodesAllowed(t *testing.T) {
	m := newTestMachine(t, protocol.Baseline, protocol.Variant{})
	run(t, m, func(p *Proc) { p.Read(0) }) // 1 program, 4 nodes
	if m.Stats().CPUs[1].Total() != 0 {
		t.Error("idle CPU accumulated cycles")
	}
}

// TestRelaxedWritesReduceWriteStall checks the relaxed-consistency
// ablation: buffered stores stop stalling the processor, while the
// traffic stays identical (state changes are the same, only timing
// differs) and RMW fences still pay the drain.
func TestRelaxedWritesReduceWriteStall(t *testing.T) {
	prog := func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Read(memory.Addr(4096 + i*16)) // remote home: global actions
			p.Write(memory.Addr(4096 + i*16))
			p.Compute(100)
		}
	}
	runWith := func(relaxed bool) (uint64, uint64) {
		cfg := testConfig(protocol.Baseline, protocol.Variant{})
		cfg.RelaxedWrites = relaxed
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run([]Program{prog}); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Sum().WriteStall, m.Stats().TotalMsgs()
	}
	scStall, scMsgs := runWith(false)
	rxStall, rxMsgs := runWith(true)
	if rxStall >= scStall/2 {
		t.Errorf("relaxed write stall %d not well below SC %d", rxStall, scStall)
	}
	if rxMsgs != scMsgs {
		t.Errorf("relaxed traffic %d != SC traffic %d", rxMsgs, scMsgs)
	}
}

// TestRelaxedWritesRMWDrains: an atomic RMW under the relaxed model must
// wait for the write buffer, so a tight RMW loop sees SC-like stalls.
func TestRelaxedWritesRMWDrains(t *testing.T) {
	cfg := testConfig(protocol.Baseline, protocol.Variant{})
	cfg.RelaxedWrites = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var afterWrite, afterRMW uint64
	if err := m.Run([]Program{func(p *Proc) {
		p.Write(4096) // buffered: returns at local latency
		afterWrite = p.Clock()
		p.RMW(4112) // fence: must drain the pending write first
		afterRMW = p.Clock()
	}}); err != nil {
		t.Fatal(err)
	}
	if afterWrite > 50 {
		t.Errorf("buffered write stalled the processor: clock %d", afterWrite)
	}
	if afterRMW < 200 {
		t.Errorf("RMW did not drain the write buffer: clock %d", afterRMW)
	}
}
