// Command lsbench is lsnuma's benchmark. It builds nothing itself (see
// run.sh): it drives the lsreport, lssim and lsnumad binaries from outside,
// exactly as users run them, checks every output against a committed
// reference, and reports the metrics BENCHMARK.json defines.
//
//	bash bench/run.sh --workload bigmachine --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --out run.json          # all workloads
//	bash bench/run.sh --trace 1 --profiles prof/       # per-layer metrics, keep profiles
//	bash bench/run.sh --base bench/baseline.json --new run.json
//	bash bench/run.sh --update                         # regenerate bench/testdata
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"lsnuma"
)

// workloads are run in this order by -workload all. Why each exists is
// recorded in BENCHMARK.json and bench/README.md.
var workloads = []struct {
	name string
	run  func(context.Context, *env) (*outcome, error)
}{
	{"paper-all", cliRunner(paperAll)},
	{"bigmachine", cliRunner(bigMachine)},
	{"robust", cliRunner(robust)},
	{"daemon", runDaemon},
}

func cliRunner(mk func(*env) (*cliWorkload, error)) func(context.Context, *env) (*outcome, error) {
	return func(ctx context.Context, e *env) (*outcome, error) {
		w, err := mk(e)
		if err != nil {
			return nil, err
		}
		return runCLI(ctx, e, w)
	}
}

// runGrace is how long a run may take beyond its budget before it is
// killed: the first pass of a CLI workload always completes, and the
// daemon drains and restarts after its load.
const runGrace = 150 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: paper-all, bigmachine, robust, daemon, or all")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs (the daemon's request sequence, robust's fault seeds)")
		seconds  = flag.Int("seconds", 25, "measurement budget of one run, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		runs     = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "append the run records to this JSON file")
		base     = flag.String("base", "", "compare against the run records in this file")
		newRecs  = flag.String("new", "", "with -base: compare this file's records instead of running")
		profiles = flag.String("profiles", "", "keep the traced runs' CPU profiles in this directory")
		doUpdate = flag.Bool("update", false, "regenerate bench/testdata/golden.json in-process and exit")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fail(errors.New("-trace must be 0 or 1"))
	}
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *doUpdate {
		if err := update(ctx, goldenPath); err != nil {
			return fail(err)
		}
		fmt.Println("wrote", goldenPath)
		return 0
	}
	if *base != "" && *newRecs != "" {
		return compareFiles(os.Stdout, s, *base, *newRecs)
	}

	names, err := selectWorkloads(s, *workload)
	if err != nil {
		return fail(err)
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		return fail(err)
	}
	// run.sh builds the binaries under test beside lsbench.
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	var recs []record
	for r := 0; r < *runs; r++ {
		for _, name := range names {
			rec, err := runOne(ctx, s, name, &env{
				binDir: filepath.Dir(self), keep: *profiles, golden: g,
				workload: name, seed: *seed + int64(r), trace: *trace == 1,
				budget: time.Duration(*seconds) * time.Second,
			})
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			rec.Seconds = *seconds
			rec.print(os.Stdout)
			recs = append(recs, *rec)
		}
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			return fail(err)
		}
	}
	code := 0
	if *base != "" {
		baseRecs, err := readRecords(*base)
		if err != nil {
			return fail(err)
		}
		if code, err = compare(os.Stdout, s, baseRecs, recs); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(summaryLine(recs))
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "lsbench:", err)
	return 1
}

func selectWorkloads(s *spec, name string) ([]string, error) {
	var all []string
	for _, w := range workloads {
		all = append(all, w.name)
	}
	var listed []string
	for _, w := range s.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(all, ",") != strings.Join(listed, ",") {
		return nil, fmt.Errorf("BENCHMARK.json lists workloads %v, lsbench implements %v", listed, all)
	}
	if name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w == name {
			return []string{name}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, all)
}

// runOne measures one workload once and checks its metrics against the
// spec.
func runOne(ctx context.Context, s *spec, name string, e *env) (*record, error) {
	dir, err := os.MkdirTemp("", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.runDir = dir
	// Flush earlier runs' file writes so their writeback does not land in
	// this run's measurement (the daemon's journal fsyncs feel it most).
	syscall.Sync()
	ctx, cancel := context.WithTimeout(ctx, e.budget+runGrace)
	defer cancel()

	var o *outcome
	for _, w := range workloads {
		if w.name == name {
			o, err = w.run(ctx, e)
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	if e.logged > maxLogged {
		fmt.Fprintf(os.Stderr, "lsbench: %s: %d more failures not shown\n", name, e.logged-maxLogged)
	}
	rec := &record{
		Workload: name, Seed: e.seed, Trace: e.trace, Host: thisHost(),
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
	}
	if rec.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return rec, rec.selectMetrics(s, o.values)
}

// env is what one run of one workload needs.
type env struct {
	binDir, runDir string
	keep           string // directory keeping profiles, or ""
	golden         *golden
	workload       string
	seed           int64
	trace          bool
	budget         time.Duration
	files          int // names scratch files uniquely
	logged         int
}

const maxLogged = 10

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// scratch returns a fresh path under the run's scratch directory.
func (e *env) scratch(name string) string {
	e.files++
	return filepath.Join(e.runDir, fmt.Sprintf("%d-%s", e.files, name))
}

// profilePath names the next CPU profile; kept ones are named after the
// workload and seed so runs do not overwrite each other.
func (e *env) profilePath(bin string) string {
	if e.keep == "" {
		return e.scratch(bin + ".pprof")
	}
	e.files++
	return filepath.Join(e.keep, fmt.Sprintf("%s-seed%d-%s-%03d.pprof", e.workload, e.seed, bin, e.files))
}

// logf reports a failed operation on stderr; after maxLogged only counts.
func (e *env) logf(format string, args ...any) {
	e.logged++
	if e.logged <= maxLogged {
		fmt.Fprintf(os.Stderr, "lsbench: %s: "+format+"\n", append([]any{e.workload}, args...)...)
	}
}

// outcome is what a workload measured, before selection by the spec.
type outcome struct {
	attempted, failed int
	values            map[string]metric
}

func newOutcome() *outcome { return &outcome{values: map[string]metric{}} }

func (o *outcome) add(attempted, failed int) {
	o.attempted += attempted
	o.failed += failed
}

// procMetrics records host CPU time and how busy it kept the machine.
func (o *outcome) procMetrics(cpu, wall time.Duration) {
	o.values["proc.cpu_s"] = metric{Value: secs(cpu), Unit: "s"}
	o.values["proc.util"] = metric{Value: secs(cpu) / (secs(wall) * float64(runtime.NumCPU())), Unit: "ratio"}
}

// countMetrics sums the simulated counters of results, which repeat
// exactly for the same input, and the host time per simulated operation
// given the CPU time that produced them.
func (o *outcome) countMetrics(results []*lsnuma.Result, cpu time.Duration) {
	var ops, cycles, misses, grants, failed, elim, msgs, bytes, nacks, retries, resends, dropped uint64
	for _, r := range results {
		ops += r.Loads + r.Stores
		cycles += r.ExecTime
		misses += r.GlobalReadMisses() + r.GlobalWriteMisses
		grants += r.ExclusiveGrants
		failed += r.FailedPredictions
		elim += r.EliminatedOwnership
		msgs += r.Msgs
		bytes += r.Bytes
		nacks += r.Resil.Nacks
		retries += r.Resil.Retries
		resends += r.Resil.TimeoutResends
		dropped += r.Resil.DroppedMsgs
	}
	count := func(name string, v uint64) { o.values[name] = metric{Value: float64(v), Unit: "count"} }
	count("engine.sim_ops", ops)
	count("engine.sim_cycles", cycles)
	count("cache.global_misses", misses)
	count("protocol.ls_grants", grants)
	count("protocol.failed_predictions", failed)
	count("protocol.eliminated_ownership", elim)
	count("network.msgs", msgs)
	count("network.bytes", bytes)
	count("resil.nacks", nacks)
	count("resil.retries", retries)
	count("resil.resends", resends)
	count("resil.dropped_msgs", dropped)
	perOp := 0.0
	if ops > 0 {
		perOp = float64(cpu.Nanoseconds()) / float64(ops)
	}
	o.values["engine.ns_per_simop"] = metric{Value: perOp, Unit: "ns"}
}

// serverMetrics records the daemon's counters from a /metrics scrape; nil
// (a CLI workload, no server) records zeros.
func (o *outcome) serverMetrics(scrape map[string]float64) {
	o.values["server.points_computed"] = metric{Value: scrape["lsnumad_points_computed_total"], Unit: "count"}
	o.values["server.points_cached"] = metric{Value: scrape["lsnumad_points_cached_total"], Unit: "count"}
	o.values["server.points_deduped"] = metric{Value: scrape["lsnumad_points_deduped_total"], Unit: "count"}
	o.values["server.jobs_queued"] = metric{Value: scrape["lsnumad_jobs_queued_total"], Unit: "count"}
	hitFrac := 0.0
	if h, m := scrape["lsnumad_cache_hits_total"], scrape["lsnumad_cache_misses_total"]; h+m > 0 {
		hitFrac = h / (h + m)
	}
	o.values["resultcache.hit_frac"] = metric{Value: hitFrac, Unit: "ratio"}
}

// modelMetrics records the layer cross-check; nil (a workload the model
// does not cover) records zero ratios.
func (o *outcome) modelMetrics(m map[string]metric) {
	o.values["model.cache_ratio"] = metric{Unit: "ratio"}
	o.values["model.directory_ratio"] = metric{Unit: "ratio"}
	for k, v := range m {
		o.values[k] = v
	}
}

// compareFiles compares two record files without running anything.
func compareFiles(w io.Writer, s *spec, basePath, newPath string) int {
	base, err := readRecords(basePath)
	if err != nil {
		return fail(err)
	}
	cur, err := readRecords(newPath)
	if err != nil {
		return fail(err)
	}
	code, err := compare(w, s, base, cur)
	if err != nil {
		return fail(err)
	}
	return code
}
