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

	"lsnuma"
	"lsnuma/internal/cli"
	"lsnuma/internal/prof"
	"lsnuma/internal/report"
	"lsnuma/internal/workload"
)

// stopProfiles flushes any active profiles; fatal calls it so profiles
// survive error exits (os.Exit skips the deferred call).
var stopProfiles = func() {}

func main() {
	flags := cli.New(flag.CommandLine, "lsreport", cli.Machine, cli.Run, cli.Cache)
	var (
		scaleName = flag.String("scale", "test", "problem size: test, small, paper")
		fig       = flag.Int("fig", 0, "regenerate figure 3, 4, 5, 6 or 7")
		table     = flag.Int("table", 0, "regenerate table 2, 3 or 4")
		ablations = flag.Bool("ablations", false, "run the §5.5 ablation variants")
		all       = flag.Bool("all", false, "regenerate every figure and table")
	)
	profiles := prof.Flags(flag.CommandLine)
	flags.Parse(os.Args[1:])
	if *fig == 0 && *table == 0 && !*ablations && !*all {
		flag.Usage()
		os.Exit(2)
	}

	scale, err := workload.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	// The machine flags apply to every point; every artifact has 4-CPU
	// points of the default configuration.
	if err := flags.Apply(lsnuma.DefaultConfig()).Validate(); err != nil {
		fatal(err)
	}
	opts, err := flags.Options()
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the shared run context: in-flight points
	// abort at their next poll, the report renders with annotated holes
	// and the process exits non-zero — graceful degradation, not a kill.
	ctx, stop := flags.Context()
	defer stop()

	stopProf, err := prof.Start(*profiles)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stopProf

	r := &reporter{ctx: ctx, opts: opts, flags: flags, scale: scale}
	if *all {
		for _, f := range []int{3, 4, 5, 6, 7} {
			r.figure(f)
		}
		for _, tb := range []int{2, 3, 4} {
			r.table(tb)
		}
		r.ablations()
		r.exit()
	}
	if *fig != 0 {
		r.figure(*fig)
	}
	if *table != 0 {
		r.table(*table)
	}
	if *ablations {
		r.ablations()
	}
	r.exit()
}

// reporter runs the simulation points of one invocation. Failed points
// become annotated holes in the output and are counted in failed.
type reporter struct {
	ctx    context.Context
	opts   lsnuma.RunOptions
	flags  *cli.Flags
	scale  lsnuma.Scale
	failed int
}

// exit terminates the report: non-zero when any point failed, so a
// partial report is distinguishable from a clean one.
func (r *reporter) exit() {
	stopProfiles()
	// Cache traffic goes to stderr so that warm and cold invocations
	// keep byte-identical stdout.
	if c := r.opts.Cache; c != nil {
		s := c.Stats()
		fmt.Fprintf(os.Stderr, "lsreport: cache hits=%d misses=%d skips=%d errors=%d\n",
			s.Hits, s.Misses, s.Skips, s.Errors)
	}
	if err := r.ctx.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "lsreport: interrupted (%v); output above is partial with annotated holes\n", err)
	}
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "lsreport: %d simulation point(s) failed (output above is partial)\n", r.failed)
		os.Exit(1)
	}
	os.Exit(0)
}

// point is one simulation point of the report, with the machine flags
// applied to its configuration.
func (r *reporter) point(label string, cfg lsnuma.Config, workload string) lsnuma.Point {
	return lsnuma.Point{Label: label, Config: r.flags.Apply(cfg), Workload: workload, Scale: r.scale}
}

// compare runs the workload under all protocols; a failed protocol
// leaves a hole in the map (annotated on stderr) instead of killing the
// report.
func (r *reporter) compare(workload string) map[lsnuma.Protocol]*lsnuma.Result {
	results := r.runAll(lsnuma.ComparePoints(r.flags.Apply(lsnuma.WorkloadConfig(workload)), workload, r.scale))
	out := make(map[lsnuma.Protocol]*lsnuma.Result, len(results))
	for _, pr := range results {
		if pr.Result != nil {
			out[pr.Config.Protocol] = pr.Result
		}
	}
	return out
}

// runAll runs a set of points concurrently. Failed points are reported
// on stderr (with their diagnostic bundle) and come back with a nil
// Result — an annotated hole, not a dead report.
func (r *reporter) runAll(points []lsnuma.Point) []lsnuma.PointResult {
	results, err := lsnuma.RunAll(r.ctx, points, r.opts)
	if err != nil {
		for _, pr := range results {
			if pr.Err == nil {
				continue
			}
			r.failed++
			fmt.Fprintf(os.Stderr, "lsreport: %s: %v\n", pr.Label, pr.Err)
			if b := pr.Repro; b != nil {
				if b.Diagnosis != "" {
					fmt.Fprintf(os.Stderr, "lsreport: %s diagnosis:\n%s\n", pr.Label, b.Diagnosis)
				}
				if b.Retry != "" {
					fmt.Fprintf(os.Stderr, "lsreport: %s: %s\n", pr.Label, b.Retry)
				}
			}
		}
	}
	return results
}

func (r *reporter) figure(n int) {
	switch n {
	case 3:
		fmt.Println(report.BehaviorFigure("Figure 3: Behavior of MP3D", r.compare("mp3d")))
	case 4:
		fmt.Println(report.BehaviorFigure("Figure 4: Behavior of Cholesky", r.compare("cholesky")))
	case 5:
		// 3 node counts x 3 protocols, all concurrent.
		var points []lsnuma.Point
		byProcs := map[int]map[lsnuma.Protocol]*lsnuma.Result{}
		for _, nodes := range []int{4, 16, 32} {
			cfg := lsnuma.DefaultConfig()
			cfg.Nodes = nodes
			for _, pt := range lsnuma.ComparePoints(r.flags.Apply(cfg), "cholesky", r.scale) {
				pt.Label = fmt.Sprintf("procs=%d/%s", nodes, pt.Config.Protocol)
				points = append(points, pt)
			}
			byProcs[nodes] = map[lsnuma.Protocol]*lsnuma.Result{}
		}
		for _, pr := range r.runAll(points) {
			if pr.Result != nil {
				byProcs[pr.Config.Nodes][pr.Config.Protocol] = pr.Result
			}
		}
		fmt.Println(report.InvalidationFigure(
			"Figure 5: Invalidation traffic for Cholesky at 4, 16, and 32 processors", byProcs))
	case 6:
		fmt.Println(report.BehaviorFigure("Figure 6: Behavior of LU", r.compare("lu")))
	case 7:
		fmt.Println(report.BehaviorFigure("Figure 7: Behavior of OLTP", r.compare("oltp")))
	default:
		fatal(fmt.Errorf("no figure %d (have 3, 4, 5, 6, 7)", n))
	}
}

func (r *reporter) table(n int) {
	switch n {
	case 2:
		cfg := lsnuma.OLTPConfig()
		cfg.Protocol = lsnuma.Baseline
		if res := r.runAll([]lsnuma.Point{r.point("table2/oltp", cfg, "oltp")})[0].Result; res != nil {
			fmt.Println(report.Table2(res))
		} else {
			fmt.Println("Table 2: SKIPPED (simulation failed; see stderr)")
		}
	case 3:
		res := r.compare("oltp")
		if res[lsnuma.LS] == nil || res[lsnuma.AD] == nil {
			fmt.Println("Table 3: SKIPPED (simulation failed; see stderr)")
			break
		}
		fmt.Println(report.Table3(res[lsnuma.LS], res[lsnuma.AD]))
	case 4:
		blocks := []uint64{16, 32, 64, 128, 256}
		var points []lsnuma.Point
		for _, block := range blocks {
			cfg := lsnuma.OLTPConfig()
			cfg.Protocol = lsnuma.Baseline
			cfg.BlockSize = block
			cfg.TrackFalseSharing = true
			points = append(points, r.point(fmt.Sprintf("block=%dB", block), cfg, "oltp"))
		}
		results := r.runAll(points)
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

// ablations reproduces the §5.5 variation analysis: default tagging, the
// keep-on-write-miss de-tag heuristic, and two-step hysteresis. The
// variants are independent simulations and run concurrently.
func (r *reporter) ablations() {
	fmt.Println("=== §5.5 ablations (execution time / total traffic / global read misses) ===")
	cases := []struct {
		name     string
		workload string
		variant  lsnuma.Variant
		protocol lsnuma.Protocol
	}{
		{"LS plain (mp3d)", "mp3d", lsnuma.Variant{}, lsnuma.LS},
		{"LS default-tagged (mp3d)", "mp3d", lsnuma.Variant{DefaultTagged: true}, lsnuma.LS},
		{"AD plain (mp3d)", "mp3d", lsnuma.Variant{}, lsnuma.AD},
		{"AD default-tagged (mp3d)", "mp3d", lsnuma.Variant{DefaultTagged: true}, lsnuma.AD},
		{"LS plain (oltp)", "oltp", lsnuma.Variant{}, lsnuma.LS},
		{"LS default-tagged (oltp)", "oltp", lsnuma.Variant{DefaultTagged: true}, lsnuma.LS},
		{"LS keep-on-write-miss (oltp)", "oltp", lsnuma.Variant{KeepOnWriteMiss: true}, lsnuma.LS},
		{"LS tag-hysteresis=2 (oltp)", "oltp", lsnuma.Variant{TagHysteresis: 2}, lsnuma.LS},
		{"LS detag-hysteresis=2 (oltp)", "oltp", lsnuma.Variant{DetagHysteresis: 2}, lsnuma.LS},
	}
	points := make([]lsnuma.Point, len(cases))
	for i, c := range cases {
		cfg := lsnuma.WorkloadConfig(c.workload)
		cfg.Protocol = c.protocol
		cfg.Variant = c.variant
		points[i] = r.point(c.name, cfg, c.workload)
	}
	results := r.runAll(points)
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
