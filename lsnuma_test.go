package lsnuma

import (
	"context"
	"runtime"
	"testing"

	"lsnuma/internal/engine"
	"lsnuma/internal/memory"
	"lsnuma/internal/workload/lu"
	"lsnuma/internal/workload/oltp"
)

func compareAll(t *testing.T, cfg Config, name string) map[Protocol]*Result {
	t.Helper()
	res, err := Compare(cfg, name, ScaleTest)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for p, r := range res {
		if r.ExecTime == 0 {
			t.Fatalf("%s under %v: zero execution time", name, p)
		}
		if r.Loads == 0 || r.Stores == 0 {
			t.Fatalf("%s under %v: no accesses", name, p)
		}
	}
	return res
}

func TestWorkloadsList(t *testing.T) {
	want := []string{"cholesky", "lu", "mp3d", "oltp"}
	got := Workloads()
	if len(got) != len(want) {
		t.Fatalf("Workloads() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Workloads() = %v, want %v", got, want)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(DefaultConfig(), "spice", ScaleTest); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestInvalidProtocol(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = "MOESI"
	if _, err := Run(cfg, "mp3d", ScaleTest); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted unknown protocol")
	}
}

func TestConfigDefaultsMatchPaper(t *testing.T) {
	c := DefaultConfig()
	if c.Nodes != 4 || c.L1.Size != 4*1024 || c.L2.Size != 64*1024 || c.BlockSize != 16 {
		t.Errorf("DefaultConfig = %+v", c)
	}
	o := OLTPConfig()
	if o.L1.Size != 64*1024 || o.L1.Assoc != 2 || o.L2.Size != 512*1024 || o.BlockSize != 32 {
		t.Errorf("OLTPConfig = %+v", o)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	if err := o.Validate(); err != nil {
		t.Error(err)
	}
}

// TestMP3DProtocolOrdering checks the Figure 3 shape: MP3D is migratory,
// so both AD and LS cut execution time and write-class traffic, with
// LS ≤ AD ≤ Baseline.
func TestMP3DProtocolOrdering(t *testing.T) {
	res := compareAll(t, DefaultConfig(), "mp3d")
	base, ad, ls := res[Baseline], res[AD], res[LS]

	if ad.EliminatedOwnership == 0 || ls.EliminatedOwnership == 0 {
		t.Fatalf("no eliminations: AD=%d LS=%d", ad.EliminatedOwnership, ls.EliminatedOwnership)
	}
	if !(ls.WriteStall <= ad.WriteStall && ad.WriteStall < base.WriteStall) {
		t.Errorf("write stall: LS=%d AD=%d Base=%d, want LS ≤ AD < Base",
			ls.WriteStall, ad.WriteStall, base.WriteStall)
	}
	if !(ls.ExecTime <= ad.ExecTime && ad.ExecTime < base.ExecTime) {
		t.Errorf("exec time: LS=%d AD=%d Base=%d", ls.ExecTime, ad.ExecTime, base.ExecTime)
	}
	if ls.ClassBytes[1] >= base.ClassBytes[1] {
		t.Errorf("LS write traffic %d not below baseline %d", ls.ClassBytes[1], base.ClassBytes[1])
	}
	// MP3D's load-store sequences are heavily migratory.
	if base.Total.MigratoryFrac < 0.2 {
		t.Errorf("MP3D migratory fraction = %.2f, expected substantial", base.Total.MigratoryFrac)
	}
}

// TestCholeskyLSBeatsAD checks the Figure 4 shape: at four processors
// Cholesky has almost no migratory sharing (the migratory fraction of its
// load-store sequences is near zero), so AD removes almost nothing while
// LS removes a large share of the ownership overhead.
func TestCholeskyLSBeatsAD(t *testing.T) {
	res := compareAll(t, DefaultConfig(), "cholesky")
	base, ad, ls := res[Baseline], res[AD], res[LS]

	if base.Total.MigratoryFrac > 0.1 {
		t.Errorf("cholesky migratory fraction = %.3f, want ~0 at four processors",
			base.Total.MigratoryFrac)
	}
	if ls.EliminatedOwnership == 0 {
		t.Fatal("LS eliminated nothing on cholesky")
	}
	if ls.EliminatedOwnership <= ad.EliminatedOwnership*5 {
		t.Errorf("LS eliminations (%d) not well above AD (%d)",
			ls.EliminatedOwnership, ad.EliminatedOwnership)
	}
	if ls.WriteStall >= base.WriteStall {
		t.Errorf("LS write stall %d not below baseline %d", ls.WriteStall, base.WriteStall)
	}
	// AD must stay close to baseline (the paper: unable to remove any
	// ownership overhead at four processors).
	if ad.WriteStall < base.WriteStall*90/100 {
		t.Errorf("AD write stall %d unexpectedly far below baseline %d", ad.WriteStall, base.WriteStall)
	}
	if ad.ExecTime > base.ExecTime*105/100 {
		t.Errorf("AD exec %d far above baseline %d", ad.ExecTime, base.ExecTime)
	}
}

// TestLUShape checks Figure 6: AD halves the write stall through the
// false-sharing-induced pseudo-migratory behaviour, LS removes most of
// what remains, and execution times order LS < AD < Baseline. Run at
// ScaleSmall so the matrix exceeds the L2, as at the paper's scale.
func TestLUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ScaleSmall LU run in -short mode")
	}
	cfg := DefaultConfig()
	res, err := Compare(cfg, "lu", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	base, ad, ls := res[Baseline], res[AD], res[LS]

	if !(ls.WriteStall < ad.WriteStall && ad.WriteStall < base.WriteStall) {
		t.Errorf("write stall: LS=%d AD=%d Base=%d, want LS < AD < Base",
			ls.WriteStall, ad.WriteStall, base.WriteStall)
	}
	if ls.WriteStall > base.WriteStall*60/100 {
		t.Errorf("LS write stall %d not well below baseline %d", ls.WriteStall, base.WriteStall)
	}
	if !(ls.ExecTime < base.ExecTime) {
		t.Errorf("LS exec %d not below baseline %d", ls.ExecTime, base.ExecTime)
	}
	// LS trades some extra read misses for the write-stall win (the paper
	// reports +1 % at its scale; the compacted kernel concentrates the
	// panel churn, so allow more).
	if ls.GlobalReadMisses() > base.GlobalReadMisses()*135/100 {
		t.Errorf("LS read misses %d vs baseline %d: blow-up", ls.GlobalReadMisses(), base.GlobalReadMisses())
	}
}

// TestLUCorrectness verifies the factorization is numerically right under
// the simulated execution (the workload is a real program, not a trace).
func TestLUCorrectness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	w := lu.NewWithConfig(lu.ConfigFor(ScaleTest), cfg.Nodes)
	_, err := RunWorkload(cfg, w, "test")
	if err != nil {
		t.Fatal(err)
	}
	if r := lu.Residual(lu.ConfigFor(ScaleTest), w.Matrix()); r > 1e-9 {
		t.Errorf("LU residual = %g", r)
	}
}

// TestOLTPShape checks Figure 7 and Tables 2/3: LS beats AD on execution
// time and traffic; a substantial fraction of global writes are load-store
// sequences, roughly half of them migratory; more than one invalidation
// per ownership acquisition.
func TestOLTPShape(t *testing.T) {
	res := compareAll(t, OLTPConfig(), "oltp")
	base, ad, ls := res[Baseline], res[AD], res[LS]

	if !(ls.ExecTime < base.ExecTime) {
		t.Errorf("LS exec %d not below baseline %d", ls.ExecTime, base.ExecTime)
	}
	if !(ad.ExecTime < base.ExecTime) {
		t.Errorf("AD exec %d not below baseline %d", ad.ExecTime, base.ExecTime)
	}
	// LS and AD land within a few percent of each other on execution time
	// in this reproduction (see EXPERIMENTS.md); the robust orderings are
	// write stall and coverage.
	if ls.ExecTime > ad.ExecTime*105/100 {
		t.Errorf("LS exec %d far above AD %d", ls.ExecTime, ad.ExecTime)
	}
	if !(ls.WriteStall < ad.WriteStall) {
		t.Errorf("LS write stall %d not below AD %d", ls.WriteStall, ad.WriteStall)
	}
	lsFrac := base.Total.LoadStoreFrac
	if lsFrac < 0.25 || lsFrac > 0.75 {
		t.Errorf("OLTP load-store fraction = %.2f, want roughly the paper's 0.42", lsFrac)
	}
	if base.Total.MigratoryFrac < 0.2 || base.Total.MigratoryFrac > 0.8 {
		t.Errorf("OLTP migratory fraction = %.2f, want roughly the paper's 0.47", base.Total.MigratoryFrac)
	}
	// Coverage: LS must cover all migratory sequences it sees and beat AD
	// on load-store coverage (Table 3: 57.6 % vs 31.7 %).
	if ls.Coverage.LoadStoreCoverage <= ad.Coverage.LoadStoreCoverage {
		t.Errorf("LS coverage %.2f not above AD %.2f",
			ls.Coverage.LoadStoreCoverage, ad.Coverage.LoadStoreCoverage)
	}
	// The paper reports ~1.4 invalidations per write to a shared block;
	// our compacted transactions have fewer concurrent readers, so the
	// ratio is lower, but writes to read-shared blocks must be common.
	if base.InvalidationsPerGlobalWrite <= 0.5 {
		t.Errorf("invalidations per shared write = %.2f, want well above 0.5 (paper: 1.4)",
			base.InvalidationsPerGlobalWrite)
	}
	// All three source classes must contribute global writes (Table 2).
	for i, src := range ls.Sources {
		if src.GlobalWrites == 0 {
			t.Errorf("source class %d produced no global writes", i)
		}
	}
}

// TestOLTPConservation checks TPC-B semantics under simulated execution:
// the per-table delta sums must agree (every transaction adds its delta to
// one account, one teller and one branch).
func TestOLTPConservation(t *testing.T) {
	cfg := OLTPConfig()
	cfg.Protocol = LS
	w := oltp.NewWithConfig(oltp.ConfigFor(ScaleTest), cfg.Nodes)
	if _, err := RunWorkload(cfg, w, "test"); err != nil {
		t.Fatal(err)
	}
	acc, tel, br := w.Balances()
	var sa, st_, sb int64
	for _, v := range acc {
		sa += v
	}
	for _, v := range tel {
		st_ += v
	}
	for _, v := range br {
		sb += v
	}
	if sa != st_ || st_ != sb {
		t.Errorf("balance sums diverged: accounts=%d tellers=%d branches=%d", sa, st_, sb)
	}
	if w.CommittedTx == 0 {
		t.Error("no transactions committed")
	}
}

// TestFalseSharingTracksBlockSize checks the Table 4 trend: the
// false-sharing fraction grows with cache block size.
func TestFalseSharingTracksBlockSize(t *testing.T) {
	frac := func(block uint64) float64 {
		cfg := OLTPConfig()
		cfg.Protocol = Baseline
		cfg.BlockSize = block
		cfg.TrackFalseSharing = true
		res, err := Run(cfg, "oltp", ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		return res.FalseSharingFrac
	}
	small := frac(16)
	big := frac(128)
	if !(big > small) {
		t.Errorf("false sharing frac: 16B=%.3f 128B=%.3f, want increasing", small, big)
	}
}

// TestDeterministicResults verifies run-to-run determinism end to end.
func TestDeterministicResults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	a, err := Run(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.Msgs != b.Msgs || a.GlobalInv != b.GlobalInv {
		t.Errorf("nondeterministic results: %+v vs %+v", a, b)
	}
}

// TestRunRetainsNoMachine pins that a finished Run keeps nothing of its
// machine reachable: every point runs on a machine of its own, which is
// garbage once the Result is filled. An oltp machine at 32 CPUs holds
// about 25 MB of caches and directory pages, so one kept past Run shows
// as heap growth far above the bound. Not parallel: the heap is
// process-wide.
func TestRunRetainsNoMachine(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cfg := OLTPConfig()
	cfg.Nodes = 32
	before := heap()
	res, err := Run(cfg, "oltp", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	growth := heap() - before
	runtime.KeepAlive(res)
	t.Logf("heap growth across one oltp/32 Run: %d bytes", growth)
	if growth >= 2<<20 {
		t.Fatalf("heap grew %.1f MB across a finished Run, want under 2 MiB: something keeps the machine", float64(growth)/1e6)
	}
}

// TestRunAllCollectsFinishedMachines pins that RunAll does not leave a
// computed point's machine to the pacer: when it returns, the heap holds
// no dead machine although nothing outside RunAll collected. Left to the
// pacer, the last oltp/32 machine (about 25 MB) is still allocated then,
// and a batch's peak memory depends on where the collections fall. Not
// parallel: the heap is process-wide.
func TestRunAllCollectsFinishedMachines(t *testing.T) {
	var points []Point
	for _, p := range []Protocol{Baseline, LS} {
		cfg := OLTPConfig()
		cfg.Nodes = 32
		cfg.Protocol = p
		points = append(points, Point{Label: string(p), Config: cfg, Workload: "oltp", Scale: ScaleTest})
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	prs, err := RunAll(context.Background(), points, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	growth := int64(ms.HeapAlloc) - before
	runtime.KeepAlive(prs)
	t.Logf("heap growth across RunAll of two oltp/32 points, no collection after: %d bytes", growth)
	if growth >= 2<<20 {
		t.Fatalf("heap holds %.1f MB more after RunAll, want under 2 MiB: a finished machine was left to the pacer", float64(growth)/1e6)
	}
}

// TestRunPrograms exercises the custom-workload entry point.
func TestRunPrograms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	res, err := RunPrograms(cfg, "custom-pingpong", func(m *engine.Machine) ([]engine.Program, error) {
		x := m.Alloc().AllocBlocks("x", 16)
		prog := func(p *engine.Proc) {
			for i := 0; i < 20; i++ {
				p.RMW(x)
				p.Compute(100)
			}
		}
		return []engine.Program{prog, prog, nil, nil}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "custom-pingpong" || res.ExecTime == 0 {
		t.Errorf("custom result = %+v", res)
	}
	if res.EliminatedOwnership == 0 {
		t.Error("LS eliminated nothing on the RMW ping-pong")
	}
}

// TestVariantsRun ensures every §5.5 ablation variant completes on a real
// workload.
func TestVariantsRun(t *testing.T) {
	for _, v := range []Variant{
		{DefaultTagged: true},
		{KeepOnWriteMiss: true},
		{TagHysteresis: 2},
		{DetagHysteresis: 2},
		{TagHysteresis: 2, DetagHysteresis: 2, DefaultTagged: true, KeepOnWriteMiss: true},
	} {
		cfg := DefaultConfig()
		cfg.Protocol = LS
		cfg.Variant = v
		if _, err := Run(cfg, "mp3d", ScaleTest); err != nil {
			t.Errorf("variant %+v: %v", v, err)
		}
	}
}

// TestEXTechnique checks the static-technique extension: near-perfect
// coverage on the fully annotated Cholesky kernel, much weaker coverage on
// OLTP where most load-store sites are not annotated — the paper's §2.1
// argument for dynamic data-centric detection.
func TestEXTechnique(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = EX
	chol, err := Run(cfg, "cholesky", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if chol.Coverage.LoadStoreCoverage < 0.9 {
		t.Errorf("EX cholesky coverage = %.2f, want near 1 (annotated sites)", chol.Coverage.LoadStoreCoverage)
	}
	ocfg := OLTPConfig()
	ocfg.Protocol = EX
	ol, err := Run(ocfg, "oltp", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	lcfg := OLTPConfig()
	lcfg.Protocol = LS
	ll, err := Run(lcfg, "oltp", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if ol.Coverage.LoadStoreCoverage >= ll.Coverage.LoadStoreCoverage {
		t.Errorf("EX OLTP coverage %.2f not below LS %.2f (static analysis should miss sites)",
			ol.Coverage.LoadStoreCoverage, ll.Coverage.LoadStoreCoverage)
	}
}

// TestRelaxedWritesShrinkLSGain: the §6 prediction — under a relaxed
// model the write-stall time LS can remove largely disappears (the write
// buffer already hides it), while LS's traffic saving remains.
func TestRelaxedWritesShrinkLSGain(t *testing.T) {
	measure := func(relaxed bool) (stallSaved uint64, trafficGain float64) {
		var wstall [2]uint64
		var bytes [2]uint64
		for i, p := range []Protocol{Baseline, LS} {
			cfg := DefaultConfig()
			cfg.Protocol = p
			cfg.RelaxedWrites = relaxed
			res, err := Run(cfg, "mp3d", ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			wstall[i] = res.WriteStall
			bytes[i] = res.Bytes
		}
		saved := uint64(0)
		if wstall[0] > wstall[1] {
			saved = wstall[0] - wstall[1]
		}
		return saved, 1 - float64(bytes[1])/float64(bytes[0])
	}
	scSaved, scTraffic := measure(false)
	rxSaved, rxTraffic := measure(true)
	if rxSaved >= scSaved/2 {
		t.Errorf("write-stall savings under relaxed (%d) not well below SC (%d)", rxSaved, scSaved)
	}
	if rxTraffic < scTraffic*0.7 {
		t.Errorf("LS traffic gain collapsed under relaxed: %.3f vs SC %.3f", rxTraffic, scTraffic)
	}
}

// lockHandoffBuild is TestLockHandoffProtocols' workload: four
// processors take turns through a mostly non-contended lock and update
// the protected counter — the spin-lock case the paper's §5.4 credits
// with faster completion under AD and LS.
// (Under heavy contention exclusive-grant protocols suffer reader-steal
// churn on the lock word instead; that regime is exercised separately by
// the mutual-exclusion engine tests.)
func lockHandoffBuild(m *engine.Machine) ([]engine.Program, error) {
	lock := engine.NewLock(m.Alloc(), "lock")
	m.Alloc().Alloc("pad", 256, 256)
	data := m.Alloc().Alloc("protected", memory.WordSize, 0)
	prog := func(p *engine.Proc) {
		for i := 0; i < 50; i++ {
			lock.Acquire(p)
			p.RMW(data)
			p.Compute(60)
			lock.Release(p)
			p.Compute(4000 + p.Rand().Intn(4000))
		}
	}
	return []engine.Program{prog, prog, prog, prog}, nil
}

// TestLockHandoffProtocols: the protected counter migrates with the lock;
// LS and AD both speed up the handoff relative to baseline.
func TestLockHandoffProtocols(t *testing.T) {
	exec := map[Protocol]uint64{}
	for _, p := range Protocols() {
		cfg := DefaultConfig()
		cfg.Protocol = p
		res, err := RunPrograms(cfg, "lock-handoff", lockHandoffBuild)
		if err != nil {
			t.Fatal(err)
		}
		exec[p] = res.ExecTime
		if p != Baseline && res.EliminatedOwnership == 0 {
			t.Errorf("%v eliminated nothing on the lock-handoff kernel", p)
		}
	}
	if exec[LS] >= exec[Baseline] {
		t.Errorf("LS exec %d not below baseline %d", exec[LS], exec[Baseline])
	}
}

// TestMesh2DTopology: under the mesh extension, remote traffic gets more
// expensive with machine size, and runs remain correct and deterministic.
func TestMesh2DTopology(t *testing.T) {
	run := func(mesh bool) *Result {
		cfg := DefaultConfig()
		cfg.Nodes = 16
		cfg.Protocol = LS
		cfg.Mesh2D = mesh
		res, err := Run(cfg, "cholesky", ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p2p := run(false)
	mesh := run(true)
	// The mesh's multi-hop traversals cost more time (the spin/poll
	// access counts differ slightly because the interleaving shifts).
	if mesh.ExecTime <= p2p.ExecTime {
		t.Errorf("mesh exec %d not above point-to-point %d", mesh.ExecTime, p2p.ExecTime)
	}
	// Both complete the same factorization: the global write population
	// stays in the same ballpark.
	if mesh.GlobalWrites() < p2p.GlobalWrites()*80/100 ||
		mesh.GlobalWrites() > p2p.GlobalWrites()*120/100 {
		t.Errorf("global writes diverged: mesh %d vs p2p %d", mesh.GlobalWrites(), p2p.GlobalWrites())
	}
}
