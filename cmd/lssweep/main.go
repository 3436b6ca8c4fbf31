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
	"flag"
	"fmt"
	"os"

	"lsnuma"
	"lsnuma/internal/cli"
	"lsnuma/internal/report"
)

func main() {
	flags := cli.New(flag.CommandLine, "lssweep", cli.Machine, cli.Run, cli.Cache, []string{"workload", "scale"})
	var (
		sweep = flag.String("sweep", "block", "parameter to sweep: block, l1, l2, nodes")
		cpus  = flag.Int("cpus", 0, "processor count for every cell (0 = workload default; the nodes sweep overrides this)")
	)
	flags.Parse(os.Args[1:])

	param, err := lsnuma.ParseSweepParam(*sweep)
	if err != nil {
		flags.Fatal(err)
	}
	base := flags.Apply(lsnuma.WorkloadConfig(flags.Workload))
	if *cpus > 0 {
		base.Nodes = *cpus
	}
	if err := base.Validate(); err != nil {
		flags.Fatal(err)
	}
	opts, err := flags.Options()
	if err != nil {
		flags.Fatal(err)
	}

	// SIGINT/SIGTERM cancel the run context: in-flight cells abort at
	// their next poll, untouched cells are skipped, and the partial
	// results below print with annotated holes.
	ctx, stop := flags.Context()
	defer stop()

	// A failed cell must not kill the sweep: print every completed cell,
	// annotate the holes with their error and diagnostic bundle, and exit
	// non-zero at the end if anything failed.
	results, runErr := lsnuma.Sweep(ctx, base, param, flags.Workload, flags.Scale, opts)

	failed := 0
	for _, pt := range results {
		text, f := report.SweepCell(pt)
		failed += f
		fmt.Print(text)
	}
	// Cache traffic goes to stderr so warm and cold invocations keep
	// byte-identical stdout (the CI cached-sweep job diffs it).
	if opts.Cache != nil {
		s := opts.Cache.Stats()
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
