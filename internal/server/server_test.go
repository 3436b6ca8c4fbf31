package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lsnuma"
)

// fakeRun installs a RunAll seam that signals each call's start on
// started, blocks until release is closed, then produces one zero
// Result per point (invoking OnPoint in order).
func fakeRun(s *Server) (started chan struct{}, release chan struct{}) {
	started = make(chan struct{}, 64)
	release = make(chan struct{})
	s.cfg.RunAll = func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		out := make([]lsnuma.PointResult, len(points))
		for i, pt := range points {
			out[i] = lsnuma.PointResult{Point: pt}
			if ctx.Err() != nil {
				out[i].Err = ctx.Err()
			} else {
				out[i].Result = &lsnuma.Result{}
			}
			if opt.OnPoint != nil && ctx.Err() == nil {
				opt.OnPoint(i, out[i])
			}
		}
		return out, ctx.Err()
	}
	return started, release
}

func postPoint(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/point", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/v1/point: %v", err)
	}
	return resp
}

// TestAdmissionControl saturates a 1-slot, 1-deep server and checks
// the third arrival is NACKed with 429 + Retry-After while the first
// two eventually complete.
func TestAdmissionControl(t *testing.T) {
	srv := New(Config{MaxJobs: 1, QueueDepth: 1})
	started, release := fakeRun(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type res struct {
		status int
		err    error
	}
	results := make(chan res, 2)
	do := func() {
		resp, err := http.Post(ts.URL+"/api/v1/point", "application/json", strings.NewReader(`{}`))
		if err != nil {
			results <- res{err: err}
			return
		}
		resp.Body.Close()
		results <- res{status: resp.StatusCode}
	}

	go do() // takes the slot
	<-started
	go do() // waits in the queue
	waitFor(t, func() bool { return srv.QueueDepth() == 1 })

	// Queue full: this one must bounce immediately.
	resp := postPoint(t, ts, `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 missing Retry-After header")
	}
	resp.Body.Close()

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("admitted job %d: status=%d err=%v, want 200", i, r.status, r.err)
		}
	}
	m := srv.Metrics()
	if got := m.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	if got := m.Admitted.Load(); got != 2 {
		t.Errorf("Admitted = %d, want 2", got)
	}
	if got := m.QueuedTotal.Load(); got != 1 {
		t.Errorf("QueuedTotal = %d, want 1", got)
	}
}

// TestPanicIsolation: a panicking job becomes a structured 500, or on
// an NDJSON stream that is already open a done trailer naming the panic
// with every line still a record, and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	for _, tc := range []struct{ endpoint, body string }{
		{"point", `{}`},
		{"sweep", `{"sweep":"block"}`},
	} {
		t.Run(tc.endpoint, func(t *testing.T) {
			srv := New(Config{MaxJobs: 2})
			srv.cfg.RunAll = func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error) {
				panic("handler bug")
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp, err := http.Post(ts.URL+"/api/v1/"+tc.endpoint, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if tc.endpoint == "point" {
				if resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("panicking job status = %d, want 500", resp.StatusCode)
				}
				var body struct {
					Error string `json:"error"`
					Stack string `json:"stack"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Fatalf("decode 500 body: %v", err)
				}
				if !strings.Contains(body.Error, "handler bug") || body.Stack == "" {
					t.Fatalf("500 body = %+v, want panic message and stack", body)
				}
			} else {
				var last StreamRecord
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					last = StreamRecord{}
					if err := json.Unmarshal(sc.Bytes(), &last); err != nil || last.Type == "" {
						t.Fatalf("stream line %q is not a record: %v", sc.Text(), err)
					}
				}
				if err := sc.Err(); err != nil {
					t.Fatal(err)
				}
				if last.Type != "done" || !strings.Contains(last.Error, "handler bug") {
					t.Fatalf("last stream record = %+v, want a done trailer naming the panic", last)
				}
			}
			if got := srv.Metrics().Panics.Load(); got != 1 {
				t.Errorf("Panics = %d, want 1", got)
			}
			// Slot released despite the panic: the daemon still serves jobs.
			h, err := http.Get(ts.URL + "/healthz")
			if err != nil || h.StatusCode != http.StatusOK {
				t.Fatalf("healthz after panic: status=%v err=%v", h.StatusCode, err)
			}
			h.Body.Close()
			if srv.Inflight() != 0 {
				t.Errorf("inflight = %d after panic, want 0", srv.Inflight())
			}
		})
	}
}

// TestGracefulDrain: drain stops admissions with 503, waits for the
// in-flight job, and completes with zero dropped jobs.
func TestGracefulDrain(t *testing.T) {
	srv := New(Config{MaxJobs: 1})
	started, release := fakeRun(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	okCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/v1/point", "application/json", strings.NewReader(`{}`))
		if err != nil {
			okCh <- -1
			return
		}
		resp.Body.Close()
		okCh <- resp.StatusCode
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, srv.Draining)

	resp := postPoint(t, ts, `{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	if h.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain status = %d, want 503", h.StatusCode)
	}
	h.Body.Close()

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a job still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if got := <-okCh; got != http.StatusOK {
		t.Fatalf("in-flight job during drain finished with %d, want 200", got)
	}
	if srv.Inflight() != 0 || srv.QueueDepth() != 0 {
		t.Fatalf("post-drain inflight=%d queue=%d, want 0/0", srv.Inflight(), srv.QueueDepth())
	}
}

// TestDrainDeadline: an expired drain context aborts in-flight jobs
// through their contexts instead of hanging forever.
func TestDrainDeadline(t *testing.T) {
	srv := New(Config{MaxJobs: 1})
	started, release := fakeRun(srv)
	defer close(release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codeCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/v1/point", "application/json", strings.NewReader(`{}`))
		if err != nil {
			codeCh <- -1
			return
		}
		resp.Body.Close()
		codeCh <- resp.StatusCode
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	// The aborted job reports 503 (cancelled by the server, not the client).
	if got := <-codeCh; got != http.StatusServiceUnavailable {
		t.Fatalf("aborted job status = %d, want 503", got)
	}
}

// TestBadRequests: malformed jobs are rejected up front with 400.
func TestBadRequests(t *testing.T) {
	srv := New(Config{})
	fakeRunNow(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
	}{
		{"bad workload", "/api/v1/point", `{"workload":"spice"}`},
		{"bad scale", "/api/v1/point", `{"scale":"huge"}`},
		{"unknown config field", "/api/v1/point", `{"config":{"Bogus":1}}`},
		{"unknown top-level field", "/api/v1/point", `{"bogus":1}`},
		{"missing sweep", "/api/v1/sweep", `{"workload":"mp3d"}`},
		{"bad sweep", "/api/v1/sweep", `{"sweep":"voltage"}`},
		{"invalid config", "/api/v1/point", `{"config":{"Nodes":-3}}`},
		{"L1 larger than L2", "/api/v1/point", `{"workload":"oltp","config":{"L2":{"Size":32768}}}`},
		// The parallel scheduler's shard count left Config with the
		// scheduler (JSON keys match fields case-insensitively, so this
		// once set it); naming it is now an unknown field, not a silently
		// ignored one.
		{"removed shard-count field", "/api/v1/point", `{"config":{"shards":2}}`},
		// Likewise the map-backed directory, gone with its backend.
		{"removed map-directory field", "/api/v1/point", `{"config":{"MapDirectory":true}}`},
		// The interconnect is the paper's point-to-point network only:
		// the 2-D mesh and its router concentration are gone.
		{"removed concentration field", "/api/v1/point", `{"config":{"Concentration":4}}`},
		{"removed mesh field", "/api/v1/point", `{"config":{"Mesh2D":true}}`},
		// The Table 1 latencies are engine constants, not Config fields.
		{"removed hop-delay field", "/api/v1/point", `{"config":{"HopDelay":2}}`},
		// A hysteresis deeper than the directory's 8-bit counters can
		// count would never fire; it is refused at admission.
		{"hysteresis too deep", "/api/v1/point", `{"config":{"Variant":{"TagHysteresis":257}}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestParseJobRejectsInclusion: a config whose L1 outgrows its L2 is
// refused at admission, not admitted and failed at machine build.
func TestParseJobRejectsInclusion(t *testing.T) {
	_, err := newJob("point", strings.NewReader(`{"workload":"oltp","config":{"L2":{"Size":32768}}}`))
	if err == nil || !strings.Contains(err.Error(), "exceeds L2 size") {
		t.Fatalf("newJob = %v, want an L1/L2 inclusion error", err)
	}
}

// fakeRunNow installs a seam that completes instantly with zero-value
// results.
func fakeRunNow(s *Server) {
	s.cfg.RunAll = func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error) {
		out := make([]lsnuma.PointResult, len(points))
		for i, pt := range points {
			out[i] = lsnuma.PointResult{Point: pt, Result: &lsnuma.Result{}}
			if opt.OnPoint != nil {
				opt.OnPoint(i, out[i])
			}
		}
		return out, nil
	}
}

// TestSweepStreamOrder: cells stream in grid order even when points
// complete in reverse, and the stream is framed job/cell.../done.
func TestSweepStreamOrder(t *testing.T) {
	srv := New(Config{MaxJobs: 1})
	srv.cfg.RunAll = func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error) {
		out := make([]lsnuma.PointResult, len(points))
		for i := len(points) - 1; i >= 0; i-- { // complete in reverse
			out[i] = lsnuma.PointResult{Point: points[i], Result: &lsnuma.Result{}}
			if opt.OnPoint != nil {
				opt.OnPoint(i, out[i])
			}
		}
		return out, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/sweep", "application/json",
		strings.NewReader(`{"workload":"mp3d","sweep":"block"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	var recs []StreamRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// block sweep: 4 grid points.
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6 (job, 4 cells, done)", len(recs))
	}
	if recs[0].Type != "job" || recs[0].Cells != 4 || recs[0].Points != 4*len(lsnuma.Protocols()) {
		t.Errorf("header = %+v, want job with 4 cells", recs[0])
	}
	for i, rec := range recs[1:5] {
		if rec.Type != "cell" || rec.Index != i {
			t.Errorf("record %d = type %q index %d, want cell %d", i+1, rec.Type, rec.Index, i)
		}
		if rec.Text == "" || !strings.HasPrefix(rec.Text, rec.Label+":") {
			t.Errorf("cell %d text %q does not start with its label %q", i, rec.Text, rec.Label)
		}
	}
	if last := recs[5]; last.Type != "done" || last.Failed != 0 {
		t.Errorf("trailer = %+v, want done with 0 failed", last)
	}
}

// TestCompareStream: per-protocol points stream in Protocols() order
// with a correct trailer, and failures carry error + repro fields.
func TestCompareStream(t *testing.T) {
	srv := New(Config{MaxJobs: 1})
	srv.cfg.RunAll = func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error) {
		out := make([]lsnuma.PointResult, len(points))
		for i, pt := range points {
			out[i] = lsnuma.PointResult{Point: pt, Result: &lsnuma.Result{}}
			if i == 1 {
				out[i] = lsnuma.PointResult{Point: pt, Err: fmt.Errorf("boom"),
					Repro: &lsnuma.ReproBundle{Config: pt.Config, Workload: pt.Workload, Scale: pt.Scale, Stack: "stack"}}
			}
			if opt.OnPoint != nil {
				opt.OnPoint(i, out[i])
			}
		}
		return out, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/compare", "application/json",
		strings.NewReader(`{"workload":"cholesky"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var recs []StreamRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	protos := lsnuma.Protocols()
	if len(recs) != len(protos)+2 {
		t.Fatalf("got %d records, want %d", len(recs), len(protos)+2)
	}
	for i, p := range protos {
		rec := recs[i+1]
		if rec.Type != "point" || rec.Index != i || rec.Protocol != string(p) {
			t.Errorf("record %d = %+v, want point %d proto %s", i+1, rec, i, p)
		}
	}
	if recs[2].Error == "" || recs[2].Repro == nil || recs[2].Repro.StackBytes == 0 {
		t.Errorf("failed point record = %+v, want error and repro with stack bytes", recs[2])
	}
	if last := recs[len(recs)-1]; last.Type != "done" || last.Failed != 1 {
		t.Errorf("trailer = %+v, want done with 1 failed", last)
	}
}

// TestMetricsEndpoint: the exposition includes the load-bearing series.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{})
	fakeRunNow(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postPoint(t, ts, `{}`)
	resp.Body.Close()

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(m.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	text := sb.String()
	for _, want := range []string{
		"lsnumad_queue_depth 0",
		"lsnumad_inflight_jobs 0",
		"lsnumad_jobs_admitted_total 1",
		"lsnumad_jobs_completed_total 1",
		"lsnumad_points_computed_total 1",
		"lsnumad_cache_dedups_total",
		"lsnumad_request_duration_ms_count{endpoint=\"point\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestConcurrentJobsShareCache drives two real (non-seam) point jobs of
// the same cold key through the daemon concurrently and checks the
// single-flight layer collapsed them into one simulation.
func TestConcurrentJobsShareCache(t *testing.T) {
	srv := New(Config{MaxJobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"workload":"mp3d","config":{"Protocol":"LS"}}`
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/point", "application/json", strings.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("job %d status = %d, want 200", i, c)
		}
	}
	m := srv.Metrics()
	computed, deduped := m.PointsComputed.Load(), m.PointsDeduped.Load()
	if computed+deduped != 2 || computed < 1 {
		t.Fatalf("computed=%d deduped=%d, want them to sum to 2 with at least one compute", computed, deduped)
	}
	// Identical concurrent points may or may not overlap in time; when
	// they do, exactly one simulates. Either way never two dedups.
	if deduped > 1 {
		t.Fatalf("deduped=%d, want at most 1", deduped)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within 5s")
}
