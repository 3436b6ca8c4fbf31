package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lsnuma"
	"lsnuma/internal/server"
	"lsnuma/internal/server/loadtest"
)

// The daemon workload's shape: two closed-loop clients (one per tenant)
// against a daemon with two job slots, each job simulating on one core.
// That keeps at most two simulations in flight on a two-core host. The
// daemon keeps its result cache on disk (-cache-dir) but runs without
// the job journal (-state-dir): on the baseline host the journal's fsyncs
// make request latency follow the virtual disk rather than the code, and
// its in-memory index makes peak memory follow the request count (see
// README.md).
const (
	daemonClients = 2
	sweepShare    = 0.10 // share of requests that are sweeps; the rest are points
	zipfS         = 1.1  // skew of point popularity
	// popularitySeed fixes which warm points are popular. Those points
	// set the median latency (their Results differ in size), so an order
	// drawn from the run seed moved the metric by about 10% between
	// seeds. The run seed draws the requests.
	popularitySeed = 1
	daemonRestarts = 9 // restarts timed for setup_s
	restartSettle  = 20 * time.Millisecond
	drainTimeout   = 60 * time.Second
)

var daemonArgs = []string{"-jobs", "2", "-queue", "8", "-j", "1"}

// coldSweep is the one sweep never requested. Its points that no other
// sweep shares are the cold keys: every run starts from a result cache
// holding all other points and computes each cold key once, spread over
// the run, so a fixed amount of simulation and cache writing sits beside
// the reads.
const coldSweep = "oltp/nodes"

// daemonInput is the request space, with request bodies prebuilt per
// tenant.
type daemonInput struct {
	points []daemonReq // warm points, requested Zipf-distributed
	cold   []daemonReq // cold points, each requested once per run
	sweeps []daemonReq // every point of these is warm
}

type daemonReq struct {
	name   string
	bodies [daemonClients]string
	want   []string // point: one Result digest; sweep: one digest per cell
}

func daemonInputs(g *golden) (*daemonInput, error) {
	sweeps, err := daemonSpace()
	if err != nil {
		return nil, err
	}
	body := func(tenant int, req server.JobRequest) (string, error) {
		req.Tenant = "t" + strconv.Itoa(tenant)
		b, err := json.Marshal(req)
		return string(b), err
	}
	requested := func(s daemonSweep) bool {
		_, ok := g.Sweeps[s.name]
		return ok && s.name != coldSweep
	}
	// A point is warm when a requested sweep holds the same workload and
	// configuration: the two share one cache entry.
	warm := map[string]bool{}
	for _, s := range sweeps {
		for _, p := range s.points {
			cfg, err := json.Marshal(p.Config)
			if err != nil {
				return nil, err
			}
			id := p.Workload + " " + string(cfg)
			warm[id] = warm[id] || requested(s)
		}
	}
	in := &daemonInput{}
	for _, s := range sweeps {
		for _, p := range s.pointList() {
			want, ok := g.Points[p.name]
			if !ok {
				continue
			}
			cfg, err := json.Marshal(p.cfg)
			if err != nil {
				return nil, err
			}
			r := daemonReq{name: p.name, want: []string{want}}
			for t := range r.bodies {
				if r.bodies[t], err = body(t, server.JobRequest{Workload: p.workload, Scale: "test", Config: cfg}); err != nil {
					return nil, err
				}
			}
			if warm[p.workload+" "+string(cfg)] {
				in.points = append(in.points, r)
			} else {
				in.cold = append(in.cold, r)
			}
		}
		if requested(s) {
			r := daemonReq{name: s.name, want: g.Sweeps[s.name]}
			for t := range r.bodies {
				if r.bodies[t], err = body(t, server.JobRequest{Workload: s.workload, Scale: "test", Sweep: string(s.axis)}); err != nil {
					return nil, err
				}
			}
			in.sweeps = append(in.sweeps, r)
		}
	}
	if len(in.points) < 2 || len(in.cold) == 0 || len(in.sweeps) == 0 {
		return nil, errors.New("golden daemon key space is incomplete; regenerate with -update")
	}
	// Put in.points in popularity order, most popular first.
	rand.New(rand.NewSource(popularitySeed)).Shuffle(len(in.points), func(i, j int) {
		in.points[i], in.points[j] = in.points[j], in.points[i]
	})
	return in, nil
}

// warmCache returns a fresh result-cache directory holding every warm
// point. The cache is built once per lsnumad binary and key space, by
// serving every requested sweep, and copied for each run; the requests
// that build it count as operations of the run that builds it.
func warmCache(ctx context.Context, e *env, in *daemonInput) (dir string, attempted, failed int, err error) {
	h := sha256.New()
	for _, f := range []string{e.bin("lsnumad"), goldenPath} {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", 0, 0, err
		}
		h.Write(data)
	}
	tmpl := filepath.Join(os.TempDir(), "daemon-cache-"+hex.EncodeToString(h.Sum(nil))[:16])
	if _, err := os.Stat(tmpl); errors.Is(err, os.ErrNotExist) {
		building, err := os.MkdirTemp("", "daemon-cache-building-")
		if err != nil {
			return "", 0, 0, err
		}
		defer os.RemoveAll(building)
		d, _, err := startDaemon(ctx, e, building, false)
		if err != nil {
			return "", 0, 0, err
		}
		for _, s := range in.sweeps {
			attempted++
			if err := doSweep(ctx, d.client, s, 0).err; err != nil {
				failed++
				e.logf("warming %s: %v", s.name, err)
			}
		}
		if err := d.stop(); err != nil {
			return "", 0, 0, err
		}
		// An incomplete cache serves this run only.
		if failed > 0 {
			tmpl = building
		} else if err := os.Rename(building, tmpl); err != nil {
			return "", 0, 0, err
		}
	}
	dir = e.scratch("cache")
	return dir, attempted, failed, copyTree(tmpl, dir)
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// daemon is one running lsnumad process.
type daemon struct {
	cmd    *exec.Cmd
	client *loadtest.Client
	pprof  string // profiler address, or ""
	stderr bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freePort picks a loopback port no one is listening on.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon starts lsnumad on cacheDir and waits until /healthz
// answers 200, returning the time from exec to that answer.
func startDaemon(ctx context.Context, e *env, cacheDir string, profile bool) (*daemon, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", addr, "-cache-dir", cacheDir}, daemonArgs...)
	d := &daemon{client: loadtest.New("http://" + addr), exited: make(chan struct{})}
	if profile {
		if d.pprof, err = freePort(); err != nil {
			return nil, 0, err
		}
		args = append(args, "-pprof-addr", d.pprof)
	}
	d.cmd = exec.CommandContext(ctx, e.bin("lsnumad"), args...)
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("lsnumad exited before serving: %v: %s", d.err, lastLines(d.stderr.String()))
		default:
		}
		if _, status, err := d.client.Healthz(ctx); err == nil && status == http.StatusOK {
			return d, time.Since(start), nil
		}
		if ctx.Err() != nil || time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, errors.New("lsnumad never became healthy")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the drain; an exit other than 0 is an
// error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(drainTimeout):
		d.kill()
		return errors.New("lsnumad did not drain in time")
	}
	if d.err != nil {
		return fmt.Errorf("lsnumad drain: %v: %s", d.err, lastLines(d.stderr.String()))
	}
	return nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exiting is fine
	<-d.exited
}

func (d *daemon) cpu() time.Duration {
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
}

func (d *daemon) rssKB() int64 {
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

func lastLines(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 400 {
		s = "..." + s[len(s)-400:]
	}
	return s
}

// reqSample is one request's outcome as the client saw it.
type reqSample struct {
	sweep     bool
	lat, ttfb time.Duration  // ttfb: until the first sweep cell
	err       error          // why the request failed or its output is wrong
	fresh     *lsnuma.Result // a point the daemon simulated for this request
}

// load is what the clients measured.
type load struct {
	samples []reqSample
	wall    time.Duration
}

// drive runs the closed-loop clients until the budget is spent. Each
// client draws from its own seeded stream: a sweep with probability
// sweepShare, otherwise a warm point chosen Zipf(zipfS) over the fixed
// popularity order. The first client also requests the cold points, in
// grid order at evenly spaced times across the budget, so they never
// simulate concurrently and the daemon's memory peak does not depend on
// how they happen to overlap.
func drive(ctx context.Context, e *env, d *daemon, in *daemonInput, budget time.Duration) *load {
	start := time.Now()
	deadline := start.Add(budget)
	per := make([][]reqSample, daemonClients)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mix(e.seed, int64(c+1))))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(in.points)-1))
			next := 0 // next cold point
			if c != 0 {
				next = len(in.cold)
			}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				var s reqSample
				due := start.Add(time.Duration((float64(next) + 0.5) / float64(len(in.cold)) * float64(budget)))
				switch {
				case next < len(in.cold) && !time.Now().Before(due):
					s = doPoint(ctx, d.client, in.cold[next], c)
					next++
				case rng.Float64() < sweepShare:
					s = doSweep(ctx, d.client, in.sweeps[rng.Intn(len(in.sweeps))], c)
				default:
					s = doPoint(ctx, d.client, in.points[zipf.Uint64()], c)
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	l := &load{wall: time.Since(start)}
	for _, p := range per {
		l.samples = append(l.samples, p...)
	}
	return l
}

// doPoint requests one point and checks the served Result against its
// golden digest without decoding it, which keeps the client's share of
// the measured latency small. Freshly simulated Results are decoded for
// the counters.
func doPoint(ctx context.Context, c *loadtest.Client, r daemonReq, tenant int) reqSample {
	start := time.Now()
	var resp struct {
		Result  json.RawMessage `json:"result"`
		Cached  bool            `json:"cached"`
		Deduped bool            `json:"deduped"`
	}
	status, err := postJSON(ctx, c, "point", r.bodies[tenant], &resp)
	s := reqSample{lat: time.Since(start)}
	switch {
	case err != nil:
		s.err = fmt.Errorf("point %s: %w", r.name, err)
	case status != http.StatusOK || len(resp.Result) == 0:
		s.err = fmt.Errorf("point %s: status %d without a result", r.name, status)
	default:
		d, err := digestJSON(resp.Result)
		if err == nil && d != r.want[0] {
			err = fmt.Errorf("result digest %.12s, golden %.12s", d, r.want[0])
		}
		if err == nil && !resp.Cached && !resp.Deduped {
			s.fresh = new(lsnuma.Result)
			err = json.Unmarshal(resp.Result, s.fresh)
		}
		if err != nil {
			s.err = fmt.Errorf("point %s: %w", r.name, err)
		}
	}
	return s
}

// postJSON posts body to /api/v1/<endpoint> and decodes the JSON reply.
func postJSON(ctx context.Context, c *loadtest.Client, endpoint, body string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/api/v1/"+endpoint, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(out)
	// Read to the end so the connection is reused.
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // the reply is already decoded
	return resp.StatusCode, err
}

func doSweep(ctx context.Context, c *loadtest.Client, r daemonReq, tenant int) reqSample {
	start := time.Now()
	s := reqSample{sweep: true}
	cells, good, done := 0, true, false
	// Stream reports a status other than 200 as an error.
	_, err := c.Stream(ctx, "sweep", r.bodies[tenant], func(rec server.StreamRecord) error {
		switch rec.Type {
		case "cell":
			if cells == 0 {
				s.ttfb = time.Since(start)
			}
			cells++
			good = good && rec.Index < len(r.want) && digestBytes([]byte(rec.Text)) == r.want[rec.Index]
		case "done":
			done = rec.Failed == 0 && rec.Error == ""
		}
		return nil
	})
	s.lat = time.Since(start)
	switch {
	case err != nil:
		s.err = fmt.Errorf("sweep %s: %w", r.name, err)
	case !good || !done || cells != len(r.want):
		s.err = fmt.Errorf("sweep %s: %d of %d cells, matching=%v, clean trailer=%v", r.name, cells, len(r.want), good, done)
	}
	return s
}

// count tallies the requests and logs the failed ones.
func (l *load) count(e *env) (attempted, failed int) {
	for _, s := range l.samples {
		attempted++
		if s.err != nil {
			failed++
			e.logf("%v", s.err)
		}
	}
	return
}

// latencies returns the latencies (ms) of the selected requests.
func (l *load) latencies(keep func(reqSample) bool, of func(reqSample) time.Duration) []float64 {
	var out []float64
	for _, s := range l.samples {
		if keep(s) {
			out = append(out, ms(of(s)))
		}
	}
	return out
}

func anyReq(reqSample) bool                 { return true }
func pointReq(s reqSample) bool             { return !s.sweep }
func sweepReq(s reqSample) bool             { return s.sweep }
func latOf(s reqSample) time.Duration       { return s.lat }
func firstCellOf(s reqSample) time.Duration { return s.ttfb }

// runDaemon measures lsnumad under two closed-loop clients, each run
// starting from a copy of the warm cache (see warmCache). Untraced, one
// daemon serves the whole budget, drains on SIGTERM, and is then
// restarted onto the cache the load left behind to time start-up.
// Traced, a first half runs untraced (counters, reference latency) and a
// second half, on a fresh copy, runs under the daemon's CPU profiler.
func runDaemon(ctx context.Context, e *env) (*outcome, error) {
	in, err := daemonInputs(e.golden)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	cache, attempted, failed, err := warmCache(ctx, e, in)
	if err != nil {
		return nil, err
	}
	o.add(attempted, failed)
	if !e.trace {
		// Probes run while no daemon is up: before the load and between
		// the restarts after it.
		var probes []float64
		for i := 0; i < daemonRestarts; i++ {
			probes = append(probes, ms(probe()))
		}
		d, _, err := startDaemon(ctx, e, cache, false)
		if err != nil {
			return nil, err
		}
		l := drive(ctx, e, d, in, e.budget)
		o.add(l.count(e))
		o.add(1, countErr(e, d.stop()))
		rss := d.rssKB()
		var setups []float64
		for i := 0; i < daemonRestarts; i++ {
			r, ready, err := startDaemon(ctx, e, cache, false)
			if err != nil {
				return nil, err
			}
			setups = append(setups, secs(ready))
			// lsnumad starts serving before it installs its SIGTERM
			// handler; a signal in that window kills it instead of
			// draining it. Give it time to get past that point.
			time.Sleep(restartSettle)
			o.add(1, countErr(e, r.stop()))
			probes = append(probes, ms(probe()))
		}
		lat := l.latencies(anyReq, latOf)
		o.timingMetrics(median(lat), len(lat), setups, probes)
		o.values["peak_rss_mb"] = metric{Value: float64(rss) / 1024, Unit: "MB"}
		return o, nil
	}

	half := e.budget / 2
	d, _, err := startDaemon(ctx, e, cache, false)
	if err != nil {
		return nil, err
	}
	plain := drive(ctx, e, d, in, half)
	o.add(plain.count(e))
	scrape, err := d.client.Metrics(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}
	o.add(1, countErr(e, d.stop()))
	o.serverMetrics(scrape)
	plain.clientMetrics(o.values)
	o.procMetrics(d.cpu(), plain.wall)
	var fresh []*lsnuma.Result
	for _, s := range plain.samples {
		if s.fresh != nil {
			fresh = append(fresh, s.fresh)
		}
	}
	o.countMetrics(fresh, d.cpu())

	if cache, _, _, err = warmCache(ctx, e, in); err != nil {
		return nil, err
	}
	d, _, err = startDaemon(ctx, e, cache, true)
	if err != nil {
		return nil, err
	}
	prof := e.profilePath("lsnumad")
	profErr := make(chan error, 1)
	go func() { profErr <- fetchProfile(ctx, d.pprof, max(1, int(half/time.Second)), prof) }()
	traced := drive(ctx, e, d, in, half)
	o.add(traced.count(e))
	perr := <-profErr
	o.add(1, countErr(e, d.stop()))
	if perr != nil {
		return nil, perr
	}
	buckets, err := profileLayers(e.bin("lsnumad"), []string{prof}, "runtime")
	if err != nil {
		return nil, err
	}
	layerMetrics(buckets, o.values)
	o.values["trace.overhead"] = metric{
		Value: median(traced.latencies(anyReq, latOf)) / median(plain.latencies(anyReq, latOf)),
		Unit:  "ratio",
	}
	o.modelMetrics(nil)
	return o, nil
}

// countErr logs err and returns 1 if it is an error, else 0.
func countErr(e *env, err error) int {
	if err == nil {
		return 0
	}
	e.logf("%v", err)
	return 1
}

// clientMetrics are the per-layer view of the load: point latency at the
// median and the tail, sweep latency, time to the first streamed cell,
// and request rate.
func (l *load) clientMetrics(into map[string]metric) {
	points := l.latencies(pointReq, latOf)
	sweeps := l.latencies(sweepReq, latOf)
	into["client.op_p50_ms"] = metric{Value: median(points), Unit: "ms", N: len(points)}
	into["client.op_tail_ms"] = metric{Value: tailOrMax(points), Unit: "ms", N: len(points)}
	into["client.job_p50_ms"] = metric{Value: median(sweeps), Unit: "ms", N: len(sweeps)}
	into["client.ttfb_p50_ms"] = metric{Value: median(l.latencies(sweepReq, firstCellOf)), Unit: "ms", N: len(sweeps)}
	into["client.ops_per_s"] = metric{Value: float64(len(l.samples)) / secs(l.wall), Unit: "1/s", N: len(l.samples)}
}

// fetchProfile collects a CPU profile of the given length from the
// daemon's profiler into path.
func fetchProfile(ctx context.Context, addr string, seconds int, path string) error {
	url := fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, seconds)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile: status %d", resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
