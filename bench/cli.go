package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lsnuma"
)

// execResult is one finished CLI invocation.
type execResult struct {
	wall, cpu, ttfb time.Duration // ttfb: until the first byte on stdout
	rssKB           int64
	stdout          []byte
}

// run executes bin with args, waiting for it to exit. A non-zero exit is
// an error carrying the tail of stderr.
func run(ctx context.Context, bin string, args ...string) (execResult, error) {
	var res execResult
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var buf bytes.Buffer
	chunk := make([]byte, 64<<10)
	for {
		n, rerr := out.Read(chunk)
		if n > 0 && buf.Len() == 0 {
			res.ttfb = time.Since(start)
		}
		buf.Write(chunk[:n])
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	werr := cmd.Wait()
	res.wall = time.Since(start)
	res.stdout = buf.Bytes()
	if st := cmd.ProcessState; st != nil {
		res.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			res.rssKB = ru.Maxrss
		}
	}
	if err == nil {
		err = werr
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 400 {
			msg = "..." + msg[len(msg)-400:]
		}
		return res, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, msg)
	}
	return res, nil
}

// command is one CLI invocation in a pass of a CLI workload.
type command struct {
	name string // stable across passes: per-command statistics key on it
	args []string
	// check verifies stdout and returns the simulation Results it carries
	// (none for lsreport, whose Results are read back from its cache).
	check func(stdout []byte) ([]*lsnuma.Result, error)
}

// cliWorkload is a workload that runs one CLI in a closed loop: passes
// over a fixed list of commands, one command at a time, as a user at a
// shell would.
type cliWorkload struct {
	bin  string // lsreport or lssim
	pass func(seed int64, pass int) []command
	// cacheResults makes untraced trace-mode runs pass -cache-dir so the
	// Results behind lsreport's text can be counted.
	cacheResults bool
	// model runs the cache/directory cross-check in trace mode.
	model bool
}

// sample is one command's measurement.
type sample struct {
	name            string
	wall, cpu, ttfb time.Duration
	rssKB           int64
}

// cliRun is what one closed loop measured.
type cliRun struct {
	samples           []sample
	attempted, failed int
	busy              time.Duration // wall time spent in commands
	// results are the first pass's Results by command; every pass
	// repeats them exactly.
	results map[string][]*lsnuma.Result
	// firstPassCPU is the host CPU time of the first pass.
	firstPassCPU time.Duration
	profiles     []string
	// setup holds start-up times (seconds) taken between invocations,
	// probes the probe times (ms) taken beside them.
	setup, probes []float64
}

// loop runs passes until the budget is spent. The first pass always runs
// whole, so every command has a sample; after that a command starts only
// if its previous duration still fits in the budget, so a run ends close
// to the budget instead of overrunning it by a whole command. With
// profile set every invocation writes a CPU profile. In the untraced half
// of a traced run, lsreport invocations get a private result cache so the
// Results behind their text can be counted.
//
// Untraced, each invocation is preceded by a timed `-version` run: exec
// to exit, which is process start and every package initializer and
// nothing else — what each invocation pays before simulating, and where
// work moved into initialization shows. Spreading these over the run
// keeps one moment's host state from deciding the run's setup_s. A probe
// (see probe.go) runs beside each of them.
func (w *cliWorkload) loop(ctx context.Context, e *env, budget time.Duration, profile bool) *cliRun {
	r := &cliRun{results: map[string][]*lsnuma.Result{}}
	harvest := e.trace && !profile && w.cacheResults
	last := map[string]time.Duration{}
	start := time.Now()
	for pass := 0; ; pass++ {
		for _, c := range w.pass(e.seed, pass) {
			if pass > 0 && time.Since(start)+last[c.name] > budget {
				return r
			}
			if !e.trace {
				res, err := run(ctx, e.bin(w.bin), "-version")
				if err != nil {
					r.attempted++
					r.failed++
					e.logf("%s -version: %v", w.bin, err)
				} else {
					r.setup = append(r.setup, secs(res.wall))
				}
				r.probes = append(r.probes, ms(probe()))
			}
			args := c.args[:len(c.args):len(c.args)]
			var cacheDir string
			switch {
			case profile:
				p := e.profilePath(w.bin)
				r.profiles = append(r.profiles, p)
				args = append(args, "-cpuprofile", p)
			case harvest:
				cacheDir = e.scratch("cache")
				args = append(args, "-cache-dir", cacheDir)
			}
			r.attempted++
			res, err := run(ctx, e.bin(w.bin), args...)
			var rs []*lsnuma.Result
			if err == nil {
				rs, err = c.check(res.stdout)
			}
			if cacheDir != "" {
				cached, cerr := cachedResults(cacheDir)
				rs = append(rs, cached...)
				err = errors.Join(err, cerr)
			}
			if err != nil {
				r.failed++
				e.logf("%s: %v", c.name, err)
			} else if pass == 0 {
				r.results[c.name] = rs
			}
			if ctx.Err() != nil {
				return r
			}
			last[c.name] = res.wall
			r.busy += res.wall
			if pass == 0 {
				r.firstPassCPU += res.cpu
			}
			r.samples = append(r.samples, sample{name: c.name, wall: res.wall, cpu: res.cpu, ttfb: res.ttfb, rssKB: res.rssKB})
		}
	}
}

// perPass sums per-command medians of f: the time of one pass made of
// typical invocations, robust to a slow outlier in any one of them.
func (r *cliRun) perPass(f func(sample) time.Duration) time.Duration {
	byName := map[string][]float64{}
	var order []string
	for _, s := range r.samples {
		if _, ok := byName[s.name]; !ok {
			order = append(order, s.name)
		}
		byName[s.name] = append(byName[s.name], float64(f(s)))
	}
	var sum float64
	for _, n := range order {
		sum += median(byName[n])
	}
	return time.Duration(sum)
}

func (r *cliRun) each(f func(sample) time.Duration) []time.Duration {
	out := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		out[i] = f(s)
	}
	return out
}

func wallOf(s sample) time.Duration { return s.wall }
func ttfbOf(s sample) time.Duration { return s.ttfb }

// peakRSSMB is the peak resident memory of the heaviest command, as the
// median over its invocations: garbage-collection timing moves a single
// invocation's peak by several percent.
func (r *cliRun) peakRSSMB() float64 {
	byName := map[string][]float64{}
	for _, s := range r.samples {
		byName[s.name] = append(byName[s.name], float64(s.rssKB))
	}
	peak := 0.0
	for _, v := range byName {
		peak = max(peak, median(v))
	}
	return peak / 1024
}

// latencyMS is a CLI workload's end-to-end latency: one pass.
func (r *cliRun) latencyMS() float64 { return ms(r.perPass(wallOf)) }

// clientMetrics are the per-layer view of the loop: per-invocation
// latency, pass latency, time to first output and invocation rate.
func (r *cliRun) clientMetrics(into map[string]metric) {
	walls := msList(r.each(wallOf))
	n := len(walls)
	into["client.op_p50_ms"] = metric{Value: median(walls), Unit: "ms", N: n}
	into["client.op_tail_ms"] = metric{Value: tailOrMax(walls), Unit: "ms", N: n}
	into["client.job_p50_ms"] = metric{Value: r.latencyMS(), Unit: "ms", N: n}
	into["client.ttfb_p50_ms"] = metric{Value: median(msList(r.each(ttfbOf))), Unit: "ms", N: n}
	into["client.ops_per_s"] = metric{Value: float64(n) / secs(r.busy), Unit: "1/s", N: n}
}

// tailOrMax is the highest percentile with ten samples beyond it, or the
// maximum when there are too few samples for any.
func tailOrMax(xs []float64) float64 {
	if _, v, ok := tail(xs); ok {
		return v
	}
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// runCLI measures a CLI workload. Untraced, the whole budget is one closed
// loop. Traced, the first half runs untraced (giving the counters and the
// reference latency) and the second half runs under -cpuprofile.
func runCLI(ctx context.Context, e *env, w *cliWorkload) (*outcome, error) {
	o := newOutcome()
	if !e.trace {
		r := w.loop(ctx, e, e.budget, false)
		o.add(r.attempted, r.failed)
		n := len(r.samples)
		o.timingMetrics(r.latencyMS(), n, r.setup, r.probes)
		o.values["peak_rss_mb"] = metric{Value: r.peakRSSMB(), Unit: "MB", N: n}
		return o, nil
	}

	plain := w.loop(ctx, e, e.budget/2, false)
	o.add(plain.attempted, plain.failed)
	plain.clientMetrics(o.values)
	o.procMetrics(plain.totalCPU(), plain.busy)
	var results []*lsnuma.Result
	for _, c := range w.pass(e.seed, 0) {
		results = append(results, plain.results[c.name]...)
	}
	o.countMetrics(results, plain.firstPassCPU)
	o.serverMetrics(nil)

	traced := w.loop(ctx, e, e.budget/2, true)
	o.add(traced.attempted, traced.failed)
	buckets, err := profileLayers(e.bin(w.bin), existing(traced.profiles), "engine.handoff")
	if err != nil {
		return nil, err
	}
	layerMetrics(buckets, o.values)
	o.values["trace.overhead"] = metric{Value: traced.latencyMS() / plain.latencyMS(), Unit: "ratio"}
	var model map[string]metric
	if w.model {
		if model, err = runModel(traced, buckets); err != nil {
			return nil, err
		}
	}
	o.modelMetrics(model)
	return o, nil
}

// existing keeps the profile files that were written (an invocation that
// failed to start writes none).
func existing(paths []string) []string {
	var out []string
	for _, p := range paths {
		if _, err := os.Stat(p); err == nil {
			out = append(out, p)
		}
	}
	return out
}

func (r *cliRun) totalCPU() time.Duration {
	var t time.Duration
	for _, s := range r.samples {
		t += s.cpu
	}
	return t
}

// cachedResults reads back every Result an lsreport invocation stored in
// its private cache directory, then removes the directory.
func cachedResults(dir string) ([]*lsnuma.Result, error) {
	defer os.RemoveAll(dir)
	var out []*lsnuma.Result
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var env struct {
			Result *lsnuma.Result `json:"result"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if env.Result != nil {
			out = append(out, env.Result)
		}
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	return out, err
}

// paperArtifacts are the artifacts `lsreport -all` prints, in its order,
// each with the line its output starts with in results_paper.txt.
var paperArtifacts = []struct {
	name   string
	args   []string
	header string
}{
	{"fig3", []string{"-fig", "3"}, "=== Figure 3:"},
	{"fig4", []string{"-fig", "4"}, "=== Figure 4:"},
	{"fig5", []string{"-fig", "5"}, "=== Figure 5:"},
	{"fig6", []string{"-fig", "6"}, "=== Figure 6:"},
	{"fig7", []string{"-fig", "7"}, "=== Figure 7:"},
	{"table2", []string{"-table", "2"}, "Table 2:"},
	{"table3", []string{"-table", "3"}, "Table 3:"},
	{"table4", []string{"-table", "4"}, "Table 4:"},
	{"ablations", []string{"-ablations"}, "=== §5.5 ablations"},
}

// paperSlices splits the committed paper-scale report into the expected
// output of each artifact.
func paperSlices(ref []byte) ([][]byte, error) {
	starts := make([]int, len(paperArtifacts)+1)
	for i, a := range paperArtifacts {
		at := bytes.Index(ref, []byte("\n"+a.header))
		if i == 0 && bytes.HasPrefix(ref, []byte(a.header)) {
			at = -1
		} else if at < 0 {
			return nil, fmt.Errorf("results_paper.txt has no %q section", a.header)
		}
		starts[i] = at + 1
	}
	starts[len(paperArtifacts)] = len(ref)
	out := make([][]byte, len(paperArtifacts))
	for i := range paperArtifacts {
		if starts[i+1] < starts[i] {
			return nil, fmt.Errorf("results_paper.txt sections out of order at %q", paperArtifacts[i+1].header)
		}
		out[i] = ref[starts[i]:starts[i+1]]
	}
	return out, nil
}

// paperAll regenerates the paper's evaluation at paper scale: each
// artifact of `lsreport -all` as its own invocation, byte-compared with
// its section of results_paper.txt. It takes no seed: the input is the
// paper's.
func paperAll(e *env) (*cliWorkload, error) {
	ref, err := os.ReadFile("results_paper.txt")
	if err != nil {
		return nil, err
	}
	want, err := paperSlices(ref)
	if err != nil {
		return nil, err
	}
	cmds := make([]command, len(paperArtifacts))
	for i, a := range paperArtifacts {
		expect := want[i]
		cmds[i] = command{
			name: a.name,
			args: append([]string{"-scale", "paper", "-j", "2"}, a.args...),
			check: func(out []byte) ([]*lsnuma.Result, error) {
				if !bytes.Equal(out, expect) {
					return nil, fmt.Errorf("output differs from results_paper.txt (%d bytes, want %d)", len(out), len(expect))
				}
				return nil, nil
			},
		}
	}
	return &cliWorkload{bin: "lsreport", cacheResults: true, pass: func(int64, int) []command { return cmds }}, nil
}

// bigMachine runs the large single points one at a time. Fixed input.
func bigMachine(e *env) (*cliWorkload, error) {
	var cmds []command
	for _, b := range bigPoints {
		name := bigName(b.workload, b.nodes)
		want, ok := e.golden.BigMachine[name]
		if !ok {
			return nil, fmt.Errorf("golden has no bigmachine point %s", name)
		}
		cmds = append(cmds, command{
			name: name,
			args: []string{"-json", "-protocol", "LS", "-scale", "small", "-dirformat", bigDirFormat,
				"-workload", b.workload, "-nodes", strconv.Itoa(b.nodes)},
			check: checkResult(want),
		})
	}
	return &cliWorkload{bin: "lssim", model: true, pass: func(int64, int) []command { return cmds }}, nil
}

// checkResult verifies one `lssim -json` Result against its golden
// digest.
func checkResult(want string) func([]byte) ([]*lsnuma.Result, error) {
	return func(out []byte) ([]*lsnuma.Result, error) {
		res, err := lsnuma.ResultFromJSON(bytes.NewReader(out))
		if err != nil {
			return nil, err
		}
		return []*lsnuma.Result{res}, matchDigest(res, want)
	}
}

func matchDigest(res *lsnuma.Result, want string) error {
	got, err := digestResult(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("result digest %.12s, golden %.12s", got, want)
	}
	return nil
}

// robust runs every workload under all protocols with the online checker
// sweeping the whole machine, bounded directory buffers with retries, and
// seeded message loss, duplication and reordering. Each Result must equal
// the lossless golden once the loss-dependent fields are stripped.
func robust(e *env) (*cliWorkload, error) {
	workloads := lsnuma.Workloads()
	return &cliWorkload{bin: "lssim", pass: func(seed int64, pass int) []command {
		cmds := make([]command, len(workloads))
		for i, w := range workloads {
			w := w
			faultSeed := mix(seed, int64(pass*len(workloads)+i))
			cmds[i] = command{
				name: w,
				args: []string{"-json", "-protocol", "all", "-scale", "small", "-workload", w,
					"-nodes", strconv.Itoa(robustNodes), "-check", "full", "-mshrs", strconv.Itoa(robustMSHRs),
					"-retry", robustRetry, "-faults", fmt.Sprintf("%s:%d", robustFaults, faultSeed)},
				check: func(out []byte) ([]*lsnuma.Result, error) { return checkRobust(out, w, e.golden.Robust) },
			}
		}
		return cmds
	}}, nil
}

// checkRobust verifies one `lssim -protocol all -json` comparison against
// the stripped lossless goldens.
func checkRobust(out []byte, workload string, want map[string]string) ([]*lsnuma.Result, error) {
	var cmp lsnuma.ComparisonJSON
	if err := json.Unmarshal(out, &cmp); err != nil {
		return nil, fmt.Errorf("decode comparison: %w", err)
	}
	var rs []*lsnuma.Result
	for _, p := range lsnuma.Protocols() {
		res := cmp.Results[string(p)]
		if res == nil {
			return nil, fmt.Errorf("no %s result", p)
		}
		rs = append(rs, res)
		key := workload + "/" + string(p)
		g, ok := want[key]
		if !ok {
			return nil, fmt.Errorf("golden has no robust point %s", key)
		}
		if err := matchDigest(stripLossy(res), g); err != nil {
			return nil, fmt.Errorf("%s: lossy run differs from lossless: %w", key, err)
		}
	}
	return rs, nil
}

// mix derives a positive seed from a run seed and a stream index
// (splitmix64), so every invocation of a run gets its own fault seed.
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}
