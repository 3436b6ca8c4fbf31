// Command lssweep runs the paper's variation analysis (Section 5.5 and the
// Table 1 parameter space): cache-size and block-size sweeps for a
// workload under every protocol, printing one summary line per point.
// Normalized lines report both byte traffic (traffic-bytes) and message
// counts (traffic-msgs) so the figures are comparable with the benchmark
// harness.
//
// All (point, protocol) simulations of a sweep are independent and run
// concurrently on a bounded worker pool; -j bounds the parallelism
// (default: all cores) and -timeout aborts points that have not started
// when it expires.
//
// SIGINT/SIGTERM degrade gracefully rather than kill the sweep:
// in-flight simulations abort at their next cancellation poll, the
// completed cells print normally, interrupted cells become annotated
// holes, and fresh results computed before the signal are already in
// the result cache (each point is flushed as it completes).
//
// Usage:
//
//	lssweep -workload mp3d -sweep block
//	lssweep -workload oltp -sweep l2 -j 4
//	lssweep -workload cholesky -sweep nodes -timeout 10m
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"lsnuma"
	"lsnuma/internal/report"
	"lsnuma/internal/version"
)

func main() {
	var (
		workloadName = flag.String("workload", "mp3d", "workload: mp3d, cholesky, lu, oltp")
		sweep        = flag.String("sweep", "block", "parameter to sweep: block, l1, l2, nodes")
		scaleName    = flag.String("scale", "test", "problem size: test, small, paper")
		parallelism  = flag.Int("j", 0, "simulations to run concurrently (0 = all cores)")
		timeout      = flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
		pointTimeout = flag.Duration("point-timeout", 0, "abort any single cell after this long; the cell becomes an annotated hole (0 = no limit)")
		checkLevel   = flag.String("check", "off", "online coherence invariant checking: off, touched, full")
		faults       = flag.String("faults", "", "inject protocol/message faults into every cell: class[@arg][:seed],...")
		mshrs        = flag.Int("mshrs", 0, "per-home directory transaction buffers (0 = unlimited)")
		retry        = flag.String("retry", "", "NACK/loss retry policy: max:N,base:C,cap:C,jitter:S (empty = retries off)")
		scheduler    = flag.String("scheduler", "", "scheduler for every cell: runahead (default) or serial")
		cpus         = flag.Int("cpus", 0, "processor count for every cell (0 = workload default; the nodes sweep overrides this)")
		dirformat    = flag.String("dirformat", "", "directory wire format: full (default), limited:i, or coarse:K")
		cacheFlag    = flag.Bool("cache", false, "memoize point results in the persistent result cache (default dir .lscache)")
		cacheDir     = flag.String("cache-dir", "", "result cache directory (implies -cache)")
		noCache      = flag.Bool("no-cache", false, "disable the result cache even if -cache/-cache-dir is given")
		showVersion  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lssweep"))
		return
	}

	var resultCache *lsnuma.ResultCache
	if (*cacheFlag || *cacheDir != "") && !*noCache {
		var err error
		if resultCache, err = lsnuma.OpenResultCache(*cacheDir); err != nil {
			fatal(err)
		}
	}

	var scale lsnuma.Scale
	switch *scaleName {
	case "test":
		scale = lsnuma.ScaleTest
	case "small":
		scale = lsnuma.ScaleSmall
	case "paper":
		scale = lsnuma.ScalePaper
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}

	base := lsnuma.DefaultConfig()
	if *workloadName == "oltp" {
		base = lsnuma.OLTPConfig()
	}
	check, err := lsnuma.ParseCheckLevel(*checkLevel)
	if err != nil {
		fatal(err)
	}
	base.Check = check
	base.Faults = *faults
	base.DirMSHRs = *mshrs
	base.Retry = *retry
	base.Scheduler = *scheduler
	if *cpus > 0 {
		base.Nodes = *cpus
	}
	base.DirFormat = *dirformat

	param, err := lsnuma.ParseSweepParam(*sweep)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the run context: in-flight cells abort at
	// their next poll, untouched cells are skipped, and the partial
	// results below print with annotated holes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// A failed cell must not kill the sweep: print every completed cell,
	// annotate the holes with their error and diagnostic bundle, and exit
	// non-zero at the end if anything failed.
	results, runErr := lsnuma.Sweep(ctx, base, param, *workloadName, scale,
		lsnuma.RunOptions{Parallelism: *parallelism, PointTimeout: *pointTimeout, Cache: resultCache})

	failed := 0
	for _, pt := range results {
		text, f := report.SweepCell(pt)
		failed += f
		fmt.Print(text)
	}
	// Cache traffic goes to stderr so warm and cold invocations keep
	// byte-identical stdout (the CI cached-sweep job diffs it).
	if resultCache != nil {
		s := resultCache.Stats()
		fmt.Fprintf(os.Stderr, "lssweep: cache hits=%d misses=%d skips=%d errors=%d\n",
			s.Hits, s.Misses, s.Skips, s.Errors)
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "lssweep: interrupted (%v); results above are partial with annotated holes\n", err)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "lssweep: %d cell(s) failed (results above are partial)\n", failed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lssweep:", err)
	os.Exit(1)
}
