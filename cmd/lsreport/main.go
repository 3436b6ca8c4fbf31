// Command lsreport regenerates the paper's evaluation artifacts: the
// behaviour figures (3, 4, 6, 7), the invalidation-traffic figure (5) and
// Tables 2-4, plus the Section 5.5 ablations.
//
// An invocation simulates each distinct point once: a first walk over
// the requested artifacts collects their points, which run as one batch
// on a bounded worker pool, and a second walk prints the artifacts from
// the batch's Results, so nothing is printed until the batch is done.
// Tables 2 and 3 reuse Figure 7's points, Figure 5's 4-processor column
// is Figure 4, and three ablations are Figure 3 and 7 points: -all
// simulates 29 points for its 39 uses. -j bounds the parallelism
// (default: all cores) and -timeout aborts points that have not started
// when it expires.
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
	"flag"
	"fmt"
	"io"
	"os"

	"lsnuma"
	"lsnuma/internal/cli"
	"lsnuma/internal/report"
)

func main() {
	flags := cli.New(flag.CommandLine, "lsreport", cli.Machine, cli.Run, cli.Cache, cli.Profile, []string{"scale"})
	var (
		fig       = flag.Int("fig", 0, "regenerate figure 3, 4, 5, 6 or 7")
		table     = flag.Int("table", 0, "regenerate table 2, 3 or 4")
		ablations = flag.Bool("ablations", false, "run the §5.5 ablation variants")
		all       = flag.Bool("all", false, "regenerate every figure and table")
	)
	flags.Parse(os.Args[1:])
	if *fig == 0 && *table == 0 && !*ablations && !*all {
		flag.Usage()
		os.Exit(2)
	}

	// The machine flags apply to every point; every artifact has 4-CPU
	// points of the default configuration.
	if err := flags.Apply(lsnuma.DefaultConfig()).Validate(); err != nil {
		flags.Fatal(err)
	}
	opts, err := flags.Options()
	if err != nil {
		flags.Fatal(err)
	}

	r := &reporter{flags: flags, index: map[lsnuma.Point]int{}}
	artifacts := func(w io.Writer) {
		r.out = w
		if *all {
			for _, f := range []int{3, 4, 5, 6, 7} {
				r.figure(f)
			}
			for _, tb := range []int{2, 3, 4} {
				r.table(tb)
			}
			r.ablations()
			return
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
	}
	// The first walk collects the points and prints nothing, so an
	// unknown figure or table fails here, before anything simulates.
	artifacts(io.Discard)

	// SIGINT/SIGTERM cancel the shared run context: in-flight points
	// abort at their next poll, the report renders with annotated holes
	// and the process exits non-zero — graceful degradation, not a kill.
	ctx, stop := flags.Context()
	defer stop()

	flags.StartProfiles()

	// A failed point is reported on stderr once (with its diagnostic
	// bundle), under the label of its first use, and leaves an annotated
	// hole in every artifact that uses it. RunAll's error only joins the
	// per-point errors reported here.
	r.results, _ = lsnuma.RunAll(ctx, r.points, opts)
	failed := 0
	for _, pr := range r.results {
		if pr.Err == nil {
			continue
		}
		failed++
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
	artifacts(os.Stdout)

	flags.StopProfiles()
	// Cache traffic goes to stderr so that warm and cold invocations
	// keep byte-identical stdout.
	if c := opts.Cache; c != nil {
		s := c.Stats()
		fmt.Fprintf(os.Stderr, "lsreport: cache hits=%d misses=%d skips=%d errors=%d\n",
			s.Hits, s.Misses, s.Skips, s.Errors)
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "lsreport: interrupted (%v); output above is partial with annotated holes\n", err)
	}
	// A partial report exits non-zero, unlike a clean one.
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "lsreport: %d simulation point(s) failed (output above is partial)\n", failed)
		os.Exit(1)
	}
}

// reporter holds the points of one invocation. Its artifact methods
// print to out, which is io.Discard until the batch's results are in.
type reporter struct {
	flags  *cli.Flags
	out    io.Writer
	points []lsnuma.Point
	// index maps a point with its label cleared to its place in points,
	// so a point that several artifacts use simulates once.
	index   map[lsnuma.Point]int
	results []lsnuma.PointResult
}

// result returns the Result of workload under cfg with the machine flags
// applied: nil while the points are being collected, and nil for a
// failed point. label names the point on stderr if it is its first use.
func (r *reporter) result(label string, cfg lsnuma.Config, workload string) *lsnuma.Result {
	pt := lsnuma.Point{Config: r.flags.Apply(cfg), Workload: workload, Scale: r.flags.Scale}
	i, ok := r.index[pt]
	if !ok {
		i = len(r.points)
		r.index[pt] = i
		pt.Label = label
		r.points = append(r.points, pt)
	}
	if r.results == nil {
		return nil
	}
	return r.results[i].Result
}

// compare returns workload's Results under every protocol, labeled
// "label/protocol"; a failed protocol is missing from the map.
func (r *reporter) compare(label string, cfg lsnuma.Config, workload string) map[lsnuma.Protocol]*lsnuma.Result {
	out := map[lsnuma.Protocol]*lsnuma.Result{}
	for _, p := range lsnuma.Protocols() {
		cfg.Protocol = p
		if res := r.result(fmt.Sprintf("%s/%s", label, p), cfg, workload); res != nil {
			out[p] = res
		}
	}
	return out
}

// behavior prints one of the behaviour figures (3, 4, 6, 7).
func (r *reporter) behavior(title, workload string) {
	fmt.Fprintln(r.out, report.BehaviorFigure(title, r.compare(workload, lsnuma.WorkloadConfig(workload), workload)))
}

func (r *reporter) figure(n int) {
	switch n {
	case 3:
		r.behavior("Figure 3: Behavior of MP3D", "mp3d")
	case 4:
		r.behavior("Figure 4: Behavior of Cholesky", "cholesky")
	case 5:
		byProcs := map[int]map[lsnuma.Protocol]*lsnuma.Result{}
		for _, nodes := range []int{4, 16, 32} {
			cfg := lsnuma.DefaultConfig()
			cfg.Nodes = nodes
			byProcs[nodes] = r.compare(fmt.Sprintf("procs=%d", nodes), cfg, "cholesky")
		}
		fmt.Fprintln(r.out, report.InvalidationFigure(
			"Figure 5: Invalidation traffic for Cholesky at 4, 16, and 32 processors", byProcs))
	case 6:
		r.behavior("Figure 6: Behavior of LU", "lu")
	case 7:
		r.behavior("Figure 7: Behavior of OLTP", "oltp")
	default:
		r.flags.Fatal(fmt.Errorf("no figure %d (have 3, 4, 5, 6, 7)", n))
	}
}

func (r *reporter) table(n int) {
	switch n {
	case 2:
		cfg := lsnuma.OLTPConfig()
		cfg.Protocol = lsnuma.Baseline
		if res := r.result("table2/oltp", cfg, "oltp"); res != nil {
			fmt.Fprintln(r.out, report.Table2(res))
		} else {
			fmt.Fprintln(r.out, "Table 2: SKIPPED (simulation failed; see stderr)")
		}
	case 3:
		res := r.compare("oltp", lsnuma.OLTPConfig(), "oltp")
		if res[lsnuma.LS] == nil || res[lsnuma.AD] == nil {
			fmt.Fprintln(r.out, "Table 3: SKIPPED (simulation failed; see stderr)")
			break
		}
		fmt.Fprintln(r.out, report.Table3(res[lsnuma.LS], res[lsnuma.AD]))
	case 4:
		byBlock := map[uint64]*lsnuma.Result{}
		for _, block := range []uint64{16, 32, 64, 128, 256} {
			cfg := lsnuma.OLTPConfig()
			cfg.Protocol = lsnuma.Baseline
			cfg.BlockSize = block
			cfg.TrackFalseSharing = true
			if res := r.result(fmt.Sprintf("block=%dB", block), cfg, "oltp"); res != nil {
				byBlock[block] = res
			}
		}
		fmt.Fprintln(r.out, report.Table4(byBlock))
	default:
		r.flags.Fatal(fmt.Errorf("no table %d (have 2, 3, 4)", n))
	}
}

// ablations reproduces the §5.5 variation analysis: default tagging, the
// keep-on-write-miss de-tag heuristic, and two-step hysteresis.
func (r *reporter) ablations() {
	fmt.Fprintln(r.out, "=== §5.5 ablations (execution time / total traffic / global read misses) ===")
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
	for _, c := range cases {
		cfg := lsnuma.WorkloadConfig(c.workload)
		cfg.Protocol = c.protocol
		cfg.Variant = c.variant
		res := r.result(c.name, cfg, c.workload)
		if res == nil {
			fmt.Fprintf(r.out, "  %-32s FAILED (see stderr)\n", c.name)
			continue
		}
		fmt.Fprintf(r.out, "  %-32s exec=%-10d msgs=%-8d read-misses=%-8d eliminated=%d\n",
			c.name, res.ExecTime, res.Msgs, res.GlobalReadMisses(), res.EliminatedOwnership)
	}
}
