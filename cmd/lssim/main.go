// Command lssim runs one workload on the simulated multiprocessor and
// prints the full measurement set.
//
// Usage:
//
//	lssim -workload oltp -protocol LS -scale small
//	lssim -workload cholesky -protocol all -nodes 16
//	lssim -workload oltp -protocol all -falseshare -block 64
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"lsnuma"
	"lsnuma/internal/classify"
	"lsnuma/internal/cli"
	"lsnuma/internal/report"
)

func main() {
	flags := cli.New(flag.CommandLine, "lssim", cli.Machine, cli.Profile, []string{"workload", "scale"})
	var (
		protoName  = flag.String("protocol", "all", "protocol: Baseline, AD, LS, or all")
		nodes      = flag.Int("nodes", 4, "processor count")
		block      = flag.Uint64("block", 0, "cache block size in bytes (0 = workload default)")
		l1Size     = flag.Uint64("l1", 0, "L1 size in bytes (0 = default)")
		l2Size     = flag.Uint64("l2", 0, "L2 size in bytes (0 = default)")
		falseShare = flag.Bool("falseshare", false, "enable the Dubois false-sharing classifier")
		defaultTag = flag.Bool("default-tagged", false, "§5.5: start all blocks tagged")
		keepOnMiss = flag.Bool("keep-on-write-miss", false, "§5.5: keep tag on LR write miss")
		tagHyst    = flag.Int("tag-hysteresis", 0, "§5.5: tagging hysteresis depth")
		detagHyst  = flag.Int("detag-hysteresis", 0, "§5.5: de-tagging hysteresis depth")
		figure     = flag.Bool("figure", false, "render the three-panel behaviour figure (needs -protocol all)")
		regions    = flag.Bool("regions", false, "print per-region load-store coverage")
		jsonOut    = flag.Bool("json", false, "emit results as JSON instead of text")
	)
	flags.Parse(os.Args[1:])

	cfg := flags.Apply(lsnuma.WorkloadConfig(flags.Workload))
	cfg.Nodes = *nodes
	if *block != 0 {
		cfg.BlockSize = *block
	}
	if *l1Size != 0 {
		cfg.L1.Size = *l1Size
	}
	if *l2Size != 0 {
		cfg.L2.Size = *l2Size
	}
	cfg.TrackFalseSharing = *falseShare
	cfg.Variant = lsnuma.Variant{
		DefaultTagged:   *defaultTag,
		KeepOnWriteMiss: *keepOnMiss,
		TagHysteresis:   *tagHyst,
		DetagHysteresis: *detagHyst,
	}
	if *protoName != "all" {
		if *figure {
			flags.Fatal(fmt.Errorf("-figure needs -protocol all"))
		}
		cfg.Protocol = lsnuma.Protocol(*protoName)
	}
	if err := cfg.Validate(); err != nil {
		flags.Fatal(err)
	}

	flags.StartProfiles()
	defer flags.StopProfiles()

	if *protoName == "all" {
		results, err := lsnuma.Compare(cfg, flags.Workload, flags.Scale)
		if err != nil {
			flags.Fatal(err)
		}
		if *jsonOut {
			if err := lsnuma.WriteComparisonJSON(os.Stdout, results); err != nil {
				flags.Fatal(err)
			}
			return
		}
		if *figure {
			fmt.Println(report.BehaviorFigure(
				fmt.Sprintf("%s (%s, %d CPUs)", flags.Workload, flags.Scale, *nodes), results))
		}
		for _, p := range lsnuma.Protocols() {
			printResult(results[p])
			if *regions {
				printRegions(results[p])
			}
		}
		return
	}

	res, err := lsnuma.Run(cfg, flags.Workload, flags.Scale)
	if err != nil {
		flags.Fatal(err)
	}
	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			flags.Fatal(err)
		}
		return
	}
	printResult(res)
	if *regions {
		printRegions(res)
	}
}

func printRegions(r *lsnuma.Result) {
	names := make([]string, 0, len(r.RegionCoverage))
	for n := range r.RegionCoverage {
		names = append(names, n)
	}
	// Most load-store writes first; ties by name, so the order does not
	// depend on map iteration.
	sort.Slice(names, func(i, j int) bool {
		wi, wj := r.RegionCoverage[names[i]].LoadStoreWrites, r.RegionCoverage[names[j]].LoadStoreWrites
		if wi != wj {
			return wi > wj
		}
		return names[i] < names[j]
	})
	fmt.Println("    region coverage (load-store writes / eliminated / migratory):")
	for _, n := range names {
		c := r.RegionCoverage[n]
		fmt.Printf("      %-16s ls=%5d elim=%5d (%5.1f%%)  mig=%5d elimMig=%5d\n",
			n, c.LoadStoreWrites, c.LoadStoreEliminated, 100*c.LoadStoreCoverage,
			c.MigratoryWrites, c.MigratoryEliminated)
	}
}

func printResult(r *lsnuma.Result) {
	fmt.Println(report.Summary(r))
	fmt.Printf("    read-misses: clean=%d dirty=%d clean-excl=%d dirty-excl=%d\n",
		r.ReadMisses[0], r.ReadMisses[1], r.ReadMisses[2], r.ReadMisses[3])
	fmt.Printf("    sequences: ls-frac=%.3f migratory-frac=%.3f  coverage: ls=%.3f mig=%.3f\n",
		r.Total.LoadStoreFrac, r.Total.MigratoryFrac,
		r.Coverage.LoadStoreCoverage, r.Coverage.MigratoryCoverage)
	fmt.Printf("    inv/global-write=%.3f exclusive-grants=%d failed-predictions=%d\n",
		r.InvalidationsPerGlobalWrite, r.ExclusiveGrants, r.FailedPredictions)
	var distTotal uint64
	for _, v := range r.SequenceDistance {
		distTotal += v
	}
	if distTotal > 0 {
		fmt.Printf("    ls-seq distance:")
		for i, v := range r.SequenceDistance {
			fmt.Printf(" %s:%.0f%%", classify.DistanceBuckets()[i],
				100*float64(v)/float64(distTotal))
		}
		fmt.Println()
	}
	if r.FalseSharingFrac > 0 || r.MissKinds[0] > 0 {
		fmt.Printf("    misses: cold=%d repl=%d true-sharing=%d false-sharing=%d (false frac %.3f)\n",
			r.MissKinds[0], r.MissKinds[1], r.MissKinds[2], r.MissKinds[3], r.FalseSharingFrac)
	}
	printResilience(&r.Resil)
}

// printResilience reports the resilient transaction layer's activity;
// silent on classic (reliable, unlimited-buffer) runs.
func printResilience(rs *lsnuma.ResilRow) {
	if rs.Nacks == 0 && rs.Retries == 0 &&
		rs.DroppedMsgs == 0 && rs.DupMsgs == 0 && rs.ReorderedMsgs == 0 {
		return
	}
	fmt.Printf("    resilience: nacks=%d retries=%d (mean %.4f/txn, max %d) resends=%d\n",
		rs.Nacks, rs.Retries, rs.MeanRetries, rs.MaxRetries, rs.TimeoutResends)
	fmt.Printf("      backoff: total=%d cycles, max=%d  faults: dropped=%d dup=%d reordered=%d\n",
		rs.BackoffCycles, rs.MaxBackoff, rs.DroppedMsgs, rs.DupMsgs, rs.ReorderedMsgs)
}
