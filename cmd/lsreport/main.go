// Command lsreport regenerates the paper's evaluation artifacts: the
// behaviour figures (3, 4, 6, 7), the invalidation-traffic figure (5) and
// Tables 2-4, plus the Section 5.5 ablations.
//
// Independent simulation points (the protocols of a comparison, the grid
// points of a table, the ablation variants) run concurrently on a bounded
// worker pool; -j bounds the parallelism (default: all cores) and
// -timeout aborts points that have not started when it expires.
//
// Usage:
//
//	lsreport -all -scale small          # everything the paper reports
//	lsreport -all -j 4                   # at most four concurrent runs
//	lsreport -fig 3                      # MP3D behaviour figure
//	lsreport -fig 5                      # Cholesky at 4/16/32 processors
//	lsreport -table 4                    # false sharing vs block size
//	lsreport -ablations                  # §5.5 variants
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"lsnuma"
	"lsnuma/internal/prof"
	"lsnuma/internal/report"
	"lsnuma/internal/version"
)

var (
	scaleFlag    = flag.String("scale", "test", "problem size: test, small, paper")
	parallelism  = flag.Int("j", 0, "simulations to run concurrently (0 = all cores)")
	timeout      = flag.Duration("timeout", 0, "abort the report after this long (0 = no limit)")
	pointTimeout = flag.Duration("point-timeout", 0, "abort any single point after this long; the point becomes an annotated hole (0 = no limit)")
	checkFlag    = flag.String("check", "off", "online coherence invariant checking: off, touched, full")
	faultsFlag   = flag.String("faults", "", "inject protocol/message faults into every point: class[@arg][:seed],...")
	mshrsFlag    = flag.Int("mshrs", 0, "per-home directory transaction buffers (0 = unlimited)")
	retryFlag    = flag.String("retry", "", "NACK/loss retry policy: max:N,base:C,cap:C,jitter:S (empty = retries off)")
	schedFlag    = flag.String("scheduler", "", "scheduler for every point: runahead (default) or serial")
	dirfmtFlag   = flag.String("dirformat", "", "directory wire format for every point: full (default), limited:i, or coarse:K")
	cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	blockprofile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	cacheFlag    = flag.Bool("cache", false, "memoize point results in the persistent result cache (default dir .lscache)")
	cacheDir     = flag.String("cache-dir", "", "result cache directory (implies -cache)")
	noCache      = flag.Bool("no-cache", false, "disable the result cache even if -cache/-cache-dir is given")
)

// resultCache is the persistent point-result cache (nil when disabled).
var resultCache *lsnuma.ResultCache

// checkLevel is the parsed -check flag, applied to every simulation
// point by robust.
var checkLevel lsnuma.CheckLevel

// failed counts simulation points that could not be completed; a partial
// report still renders (failed figures become annotated holes) but the
// process exits non-zero.
var failed int

// stopProfiles flushes any active profiles; fatal calls it so profiles
// survive error exits (os.Exit skips the deferred call).
var stopProfiles = func() {}

// runCtx is the cancellation context shared by every simulation of the
// invocation (set up in main from -timeout).
var runCtx = context.Background()

func main() {
	var (
		fig         = flag.Int("fig", 0, "regenerate figure 3, 4, 5, 6 or 7")
		table       = flag.Int("table", 0, "regenerate table 2, 3 or 4")
		ablations   = flag.Bool("ablations", false, "run the §5.5 ablation variants")
		all         = flag.Bool("all", false, "regenerate every figure and table")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lsreport"))
		return
	}

	// SIGINT/SIGTERM cancel the shared run context: in-flight points
	// abort at their next poll, the report renders with annotated holes
	// and the process exits non-zero — graceful degradation, not a kill.
	var stopSignals context.CancelFunc
	runCtx, stopSignals = signal.NotifyContext(runCtx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stop, err := prof.Start(prof.Options{
		CPU: *cpuprofile, Mem: *memprofile,
		Mutex: *mutexprofile, Block: *blockprofile,
	})
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	if checkLevel, err = lsnuma.ParseCheckLevel(*checkFlag); err != nil {
		fatal(err)
	}

	if (*cacheFlag || *cacheDir != "") && !*noCache {
		if resultCache, err = lsnuma.OpenResultCache(*cacheDir); err != nil {
			fatal(err)
		}
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}

	if *all {
		for _, f := range []int{3, 4, 5, 6, 7} {
			figure(f)
		}
		for _, tb := range []int{2, 3, 4} {
			tableOut(tb)
		}
		runAblations()
		exit()
	}
	ran := false
	if *fig != 0 {
		figure(*fig)
		ran = true
	}
	if *table != 0 {
		tableOut(*table)
		ran = true
	}
	if *ablations {
		runAblations()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	exit()
}

// exit terminates the report: non-zero when any point failed, so a
// partial report is distinguishable from a clean one.
func exit() {
	stopProfiles()
	printCacheStats()
	if err := runCtx.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "lsreport: interrupted (%v); output above is partial with annotated holes\n", err)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "lsreport: %d simulation point(s) failed (output above is partial)\n", failed)
		os.Exit(1)
	}
	os.Exit(0)
}

// printCacheStats summarizes result-cache traffic on stderr (stderr so
// that warm and cold invocations keep byte-identical stdout).
func printCacheStats() {
	if resultCache == nil {
		return
	}
	s := resultCache.Stats()
	fmt.Fprintf(os.Stderr, "lsreport: cache hits=%d misses=%d skips=%d errors=%d\n",
		s.Hits, s.Misses, s.Skips, s.Errors)
}

func scale() lsnuma.Scale {
	switch *scaleFlag {
	case "test":
		return lsnuma.ScaleTest
	case "small":
		return lsnuma.ScaleSmall
	case "paper":
		return lsnuma.ScalePaper
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleFlag))
		return 0
	}
}

func opts() lsnuma.RunOptions {
	return lsnuma.RunOptions{Parallelism: *parallelism, PointTimeout: *pointTimeout, Cache: resultCache}
}

// robust applies the report-wide -check / -faults / -mshrs / -retry /
// -scheduler flags to one point's configuration.
func robust(cfg lsnuma.Config) lsnuma.Config {
	cfg.Check = checkLevel
	cfg.Faults = *faultsFlag
	cfg.DirMSHRs = *mshrsFlag
	cfg.Retry = *retryFlag
	cfg.Scheduler = *schedFlag
	cfg.DirFormat = *dirfmtFlag
	return cfg
}

// compare runs the workload under all protocols; a failed protocol
// leaves a hole in the map (annotated on stderr) instead of killing the
// report.
func compare(cfg lsnuma.Config, workload string) map[lsnuma.Protocol]*lsnuma.Result {
	protos := lsnuma.Protocols()
	points := make([]lsnuma.Point, len(protos))
	for i, p := range protos {
		c := robust(cfg)
		c.Protocol = p
		points[i] = lsnuma.Point{Label: fmt.Sprintf("%s/%s", workload, p), Config: c, Workload: workload, Scale: scale()}
	}
	results := runAll(points)
	out := make(map[lsnuma.Protocol]*lsnuma.Result, len(protos))
	for i, p := range protos {
		if results[i].Result != nil {
			out[p] = results[i].Result
		}
	}
	return out
}

// runAll runs a set of points concurrently. Failed points are reported
// on stderr (with their diagnostic bundle) and come back with a nil
// Result — an annotated hole, not a dead report.
func runAll(points []lsnuma.Point) []lsnuma.PointResult {
	results, err := lsnuma.RunAll(runCtx, points, opts())
	if err != nil {
		for _, r := range results {
			if r.Err == nil {
				continue
			}
			failed++
			fmt.Fprintf(os.Stderr, "lsreport: %s: %v\n", r.Label, r.Err)
			if b := r.Repro; b != nil {
				if b.Diagnosis != "" {
					fmt.Fprintf(os.Stderr, "lsreport: %s diagnosis:\n%s\n", r.Label, b.Diagnosis)
				}
				if b.Retry != "" {
					fmt.Fprintf(os.Stderr, "lsreport: %s: %s\n", r.Label, b.Retry)
				}
			}
		}
	}
	return results
}

func figure(n int) {
	switch n {
	case 3:
		fmt.Println(report.BehaviorFigure("Figure 3: Behavior of MP3D",
			compare(lsnuma.DefaultConfig(), "mp3d")))
	case 4:
		fmt.Println(report.BehaviorFigure("Figure 4: Behavior of Cholesky",
			compare(lsnuma.DefaultConfig(), "cholesky")))
	case 5:
		// 3 node counts x 3 protocols, all concurrent.
		nodeCounts := []int{4, 16, 32}
		var points []lsnuma.Point
		for _, nodes := range nodeCounts {
			for _, p := range lsnuma.Protocols() {
				cfg := robust(lsnuma.DefaultConfig())
				cfg.Nodes = nodes
				cfg.Protocol = p
				points = append(points, lsnuma.Point{
					Label:    fmt.Sprintf("procs=%d/%s", nodes, p),
					Config:   cfg,
					Workload: "cholesky",
					Scale:    scale(),
				})
			}
		}
		results := runAll(points)
		byProcs := map[int]map[lsnuma.Protocol]*lsnuma.Result{}
		i := 0
		for _, nodes := range nodeCounts {
			byProcs[nodes] = map[lsnuma.Protocol]*lsnuma.Result{}
			for _, p := range lsnuma.Protocols() {
				if results[i].Result != nil {
					byProcs[nodes][p] = results[i].Result
				}
				i++
			}
		}
		fmt.Println(report.InvalidationFigure(
			"Figure 5: Invalidation traffic for Cholesky at 4, 16, and 32 processors", byProcs))
	case 6:
		fmt.Println(report.BehaviorFigure("Figure 6: Behavior of LU",
			compare(lsnuma.DefaultConfig(), "lu")))
	case 7:
		fmt.Println(report.BehaviorFigure("Figure 7: Behavior of OLTP",
			compare(lsnuma.OLTPConfig(), "oltp")))
	default:
		fatal(fmt.Errorf("no figure %d (have 3, 4, 5, 6, 7)", n))
	}
}

func tableOut(n int) {
	switch n {
	case 2:
		cfg := robust(lsnuma.OLTPConfig())
		cfg.Protocol = lsnuma.Baseline
		pts := []lsnuma.Point{{Label: "table2/oltp", Config: cfg, Workload: "oltp", Scale: scale()}}
		if res := runAll(pts)[0].Result; res != nil {
			fmt.Println(report.Table2(res))
		} else {
			fmt.Println("Table 2: SKIPPED (simulation failed; see stderr)")
		}
	case 3:
		res := compare(lsnuma.OLTPConfig(), "oltp")
		if res[lsnuma.LS] == nil || res[lsnuma.AD] == nil {
			fmt.Println("Table 3: SKIPPED (simulation failed; see stderr)")
			break
		}
		fmt.Println(report.Table3(res[lsnuma.LS], res[lsnuma.AD]))
	case 4:
		blocks := []uint64{16, 32, 64, 128, 256}
		var points []lsnuma.Point
		for _, block := range blocks {
			cfg := robust(lsnuma.OLTPConfig())
			cfg.Protocol = lsnuma.Baseline
			cfg.BlockSize = block
			cfg.TrackFalseSharing = true
			points = append(points, lsnuma.Point{
				Label:    fmt.Sprintf("block=%dB", block),
				Config:   cfg,
				Workload: "oltp",
				Scale:    scale(),
			})
		}
		results := runAll(points)
		byBlock := map[uint64]*lsnuma.Result{}
		for i, block := range blocks {
			if results[i].Result != nil {
				byBlock[block] = results[i].Result
			}
		}
		fmt.Println(report.Table4(byBlock))
	default:
		fatal(fmt.Errorf("no table %d (have 2, 3, 4)", n))
	}
}

// runAblations reproduces the §5.5 variation analysis: default tagging,
// the keep-on-write-miss de-tag heuristic, and two-step hysteresis. The
// variants are independent simulations and run concurrently.
func runAblations() {
	fmt.Println("=== §5.5 ablations (execution time / total traffic / global read misses) ===")
	type variantCase struct {
		name     string
		workload string
		cfg      lsnuma.Config
		variant  lsnuma.Variant
		protocol lsnuma.Protocol
	}
	cases := []variantCase{
		{"LS plain (mp3d)", "mp3d", lsnuma.DefaultConfig(), lsnuma.Variant{}, lsnuma.LS},
		{"LS default-tagged (mp3d)", "mp3d", lsnuma.DefaultConfig(), lsnuma.Variant{DefaultTagged: true}, lsnuma.LS},
		{"AD plain (mp3d)", "mp3d", lsnuma.DefaultConfig(), lsnuma.Variant{}, lsnuma.AD},
		{"AD default-tagged (mp3d)", "mp3d", lsnuma.DefaultConfig(), lsnuma.Variant{DefaultTagged: true}, lsnuma.AD},
		{"LS plain (oltp)", "oltp", lsnuma.OLTPConfig(), lsnuma.Variant{}, lsnuma.LS},
		{"LS default-tagged (oltp)", "oltp", lsnuma.OLTPConfig(), lsnuma.Variant{DefaultTagged: true}, lsnuma.LS},
		{"LS keep-on-write-miss (oltp)", "oltp", lsnuma.OLTPConfig(), lsnuma.Variant{KeepOnWriteMiss: true}, lsnuma.LS},
		{"LS tag-hysteresis=2 (oltp)", "oltp", lsnuma.OLTPConfig(), lsnuma.Variant{TagHysteresis: 2}, lsnuma.LS},
		{"LS detag-hysteresis=2 (oltp)", "oltp", lsnuma.OLTPConfig(), lsnuma.Variant{DetagHysteresis: 2}, lsnuma.LS},
	}
	points := make([]lsnuma.Point, len(cases))
	for i, c := range cases {
		cfg := robust(c.cfg)
		cfg.Protocol = c.protocol
		cfg.Variant = c.variant
		points[i] = lsnuma.Point{Label: c.name, Config: cfg, Workload: c.workload, Scale: scale()}
	}
	results := runAll(points)
	for i, c := range cases {
		res := results[i].Result
		if res == nil {
			fmt.Printf("  %-32s FAILED (see stderr)\n", c.name)
			continue
		}
		fmt.Printf("  %-32s exec=%-10d msgs=%-8d read-misses=%-8d eliminated=%d\n",
			c.name, res.ExecTime, res.Msgs, res.GlobalReadMisses(), res.EliminatedOwnership)
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "lsreport:", err)
	os.Exit(1)
}
