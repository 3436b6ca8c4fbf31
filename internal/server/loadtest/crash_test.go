package loadtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lsnuma"
	"lsnuma/internal/report"
	"lsnuma/internal/server"
	"lsnuma/internal/server/journal"
)

// Durability and fairness SLOs enforced by this file. The crash bound
// is exact — a restart may recompute only the points that were
// literally in flight when the daemon died; everything the cursor had
// passed must come back from the cache. The fairness bound says a
// light tenant's admission wait under a greedy flood stays an order of
// magnitude below the FIFO backlog it would otherwise sit behind.
const (
	sloLightP95 = 1 * time.Second // light-tenant P95 under a greedy flood
)

func openCrashJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestCrashRestartResumes is the in-process crash drill: kill the
// daemon (Close aborts every in-flight simulation, exactly what a
// SIGKILL plus process exit does to them) after the first streamed
// cell, restart over the same state dir, and assert the journaled
// sweep replays to completion with zero duplicate computes for the
// points that had already been persisted — then prove the resumed
// result is byte-identical to what lssweep prints.
func TestCrashRestartResumes(t *testing.T) {
	stateDir := t.TempDir()
	cacheDir := filepath.Join(stateDir, "cache")
	ctx := context.Background()

	_, points, err := lsnuma.SweepPoints(lsnuma.SweepBlock, lsnuma.DefaultConfig(), "mp3d", lsnuma.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	nproto := len(lsnuma.Protocols())
	totalPoints := len(points)

	// Incarnation 1: journaled daemon, killed after the first cell. The
	// RunAll wrapper makes the crash deterministic: once the first
	// cell's points have completed (and streamed — the inner OnPoint
	// runs first), no further point may finish until the kill has
	// landed, so the crash always interrupts a mostly-pending sweep.
	killed := make(chan struct{})
	var kill sync.Once
	srv1 := server.New(server.Config{
		MaxJobs:     1,
		Parallelism: 1,
		Cache:       openCache(t, cacheDir),
		Journal:     openCrashJournal(t, stateDir),
		RunAll: func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error) {
			var okPoints atomic.Int64
			orig := opt.OnPoint
			opt.OnPoint = func(i int, pr lsnuma.PointResult) {
				if orig != nil {
					orig(i, pr) // stream + cursor first, then gate
				}
				if pr.Err == nil && okPoints.Add(1) == int64(nproto) {
					<-killed
				}
			}
			return lsnuma.RunAll(ctx, points, opt)
		},
	})
	ts1 := httptest.NewServer(srv1.Handler())
	client1 := New(ts1.URL)

	errKilled := errors.New("daemon killed")
	var jobID string
	_, err = client1.Stream(ctx, "sweep", `{"workload":"mp3d","sweep":"block","tenant":"team-a"}`,
		func(rec server.StreamRecord) error {
			if rec.Type == "job" {
				jobID = rec.ID
			}
			if rec.Type == "cell" {
				kill.Do(func() {
					srv1.Close() // the crash: in-flight points die mid-compute
					close(killed)
				})
				return errKilled
			}
			return nil
		})
	kill.Do(func() { srv1.Close(); close(killed) }) // stream died early: unblock regardless
	ts1.Close()
	if !errors.Is(err, errKilled) {
		t.Fatalf("stream error = %v, want the kill", err)
	}
	if jobID == "" {
		t.Fatal("stream header carried no job id")
	}

	// The journal (reopened, as the next boot would) shows the wreck:
	// the job is still running and the cursor proves the first cell's
	// points were durable before the crash.
	jn2 := openCrashJournal(t, stateDir)
	rec, ok := jn2.Get(jobID)
	if !ok {
		t.Fatalf("job %s missing from reopened journal", jobID)
	}
	if rec.State != journal.StateRunning {
		t.Fatalf("crashed job state = %s, want running (terminal states must not survive a crash mid-run)", rec.State)
	}
	if rec.Completed < nproto {
		t.Fatalf("completion cursor = %d, want >= %d (the streamed cell's points)", rec.Completed, nproto)
	}
	durable := rec.Completed
	t.Logf("crash left job %s running with %d/%d points durable", jobID, durable, totalPoints)

	// Incarnation 2: same state dir, replay on startup.
	srv2 := server.New(server.Config{
		MaxJobs: 2,
		Cache:   openCache(t, cacheDir),
		Journal: jn2,
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2 := New(ts2.URL)
	if n := srv2.Recover(); n != 1 {
		t.Fatalf("Recover = %d, want 1 replayed job", n)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var st server.JobStatus
	for {
		var status int
		st, status, err = client2.JobStatus(ctx, jobID)
		if err != nil || status != http.StatusOK {
			t.Fatalf("JobStatus: status=%d err=%v", status, err)
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay did not finish: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" || st.Percent != 100 || st.Attempts != 2 {
		t.Fatalf("replayed job = %+v, want done/100%%/2 attempts", st)
	}

	// Zero duplicate computes: every point the cursor had passed comes
	// back from the cache; only the in-flight remainder is recomputed.
	m, err := client2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cached := int(m["lsnumad_points_cached_total"])
	computed := int(m["lsnumad_points_computed_total"])
	deduped := int(m["lsnumad_points_deduped_total"])
	if cached+computed+deduped != totalPoints {
		t.Errorf("replay touched %d points (cached=%d computed=%d deduped=%d), want %d",
			cached+computed+deduped, cached, computed, deduped, totalPoints)
	}
	if cached < durable {
		t.Errorf("replay served %d points from cache, want >= %d (the durable cursor): duplicate computes", cached, durable)
	}
	if got := srv2.Metrics().Recovered.Load(); got != 1 {
		t.Errorf("jobs_recovered_total = %d, want 1", got)
	}
	t.Logf("replay: cached=%d computed=%d deduped=%d of %d points", cached, computed, deduped, totalPoints)

	// Byte-identity: the resumed cache must yield exactly what an
	// uninterrupted lssweep prints over the same grid.
	results, err := lsnuma.Sweep(ctx, lsnuma.DefaultConfig(), lsnuma.SweepBlock, "mp3d", lsnuma.ScaleTest,
		lsnuma.RunOptions{Cache: openCache(t, cacheDir)})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, pt := range results {
		text, failed := report.SweepCell(pt)
		if failed != 0 {
			t.Fatalf("reference sweep cell %s failed", pt.Label)
		}
		want.WriteString(text)
	}
	recs, status, err := client2.Sweep(ctx, `{"workload":"mp3d","sweep":"block"}`)
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-replay sweep: status=%d err=%v", status, err)
	}
	var got strings.Builder
	for _, r := range recs {
		if r.Type == "cell" {
			got.WriteString(r.Text)
		}
	}
	if got.String() != want.String() {
		t.Errorf("resumed sweep is not byte-identical to lssweep stdout:\n--- daemon ---\n%s--- lssweep ---\n%s", got.String(), want.String())
	}

	// And the resumption left a fully warm cache behind: re-running the
	// grid computes nothing fresh.
	_, pts, err := lsnuma.SweepPoints(lsnuma.SweepBlock, lsnuma.DefaultConfig(), "mp3d", lsnuma.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	var fresh int
	final, err := lsnuma.RunAll(ctx, pts, lsnuma.RunOptions{Cache: openCache(t, cacheDir)})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range final {
		if !pr.Cached {
			fresh++
		}
	}
	if fresh != 0 {
		t.Errorf("%d of %d points computed fresh after resumption, want 0 (cache fully repaired)", fresh, len(final))
	}
}

// TestTenantFairnessSLO floods a one-slot daemon with a greedy tenant
// and asserts three light tenants are still admitted within the SLO —
// under FIFO the first light job alone would wait behind the entire
// greedy backlog (64 x 20ms = 1.28s), so a passing P95 proves the
// deficit-round-robin scheduler is doing the interleaving.
func TestTenantFairnessSLO(t *testing.T) {
	const (
		greedyJobs = 64
		jobCost    = 20 * time.Millisecond
	)
	srv, client := newDaemon(t, server.Config{
		MaxJobs:    1,
		QueueDepth: 256,
		Quantum:    4,
		RunAll: func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error) {
			select {
			case <-time.After(jobCost):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			out := make([]lsnuma.PointResult, len(points))
			for i, pt := range points {
				out[i] = lsnuma.PointResult{Point: pt, Result: &lsnuma.Result{}}
				if opt.OnPoint != nil {
					opt.OnPoint(i, out[i])
				}
			}
			return out, nil
		},
	})
	ctx := context.Background()

	greedyDone := make(chan int, greedyJobs)
	for i := 0; i < greedyJobs; i++ {
		go func() {
			_, status, _ := client.Point(ctx, `{"tenant":"greedy"}`)
			greedyDone <- status
		}()
	}
	waitFor(t, func() bool { return srv.QueueDepth() >= greedyJobs*3/4 })

	// The greedy backlog is visible per tenant while it is queued.
	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m[`lsnumad_tenant_queue_depth{tenant="greedy"}`] < float64(greedyJobs/2) {
		t.Errorf(`tenant_queue_depth{greedy} = %v mid-flood, want >= %d`,
			m[`lsnumad_tenant_queue_depth{tenant="greedy"}`], greedyJobs/2)
	}

	// Three light tenants, six sequential jobs each, arriving into the
	// flood. Every one must be admitted, and quickly.
	sum := Fire(ctx, 3, 6, func(ctx context.Context, c, i int) Result {
		_, status, err := client.Point(ctx, fmt.Sprintf(`{"tenant":"light-%d"}`, c))
		return Result{Status: status, Err: err}
	})
	t.Logf("light tenants under greedy flood: %v", sum)
	if sum.OK != sum.Requests {
		t.Fatalf("light tenants: %d of %d ok (%d rejected, %d failed), want all admitted",
			sum.OK, sum.Requests, sum.Rejected, sum.Failed)
	}
	if sum.P95 > sloLightP95 {
		t.Errorf("light-tenant P95 = %v under greedy flood, want <= %v (FIFO would be >= %v)",
			sum.P95, sloLightP95, time.Duration(greedyJobs)*jobCost)
	}

	// The greedy tenant is throttled, not starved: all its jobs finish.
	for i := 0; i < greedyJobs; i++ {
		if status := <-greedyDone; status != http.StatusOK {
			t.Fatalf("greedy job %d = %d, want 200", i, status)
		}
	}

	// 2:1 weighted quanta: a fresh one-slot daemon where the gold tenant
	// earns twice the bronze quantum per DRR visit. Compare jobs cost
	// three points against a bronze quantum of two, so bronze banks two
	// visits of credit per job while gold's override covers a whole job
	// every visit — gold's equal-sized backlog must drain roughly twice
	// as fast, with bronze throttled but still flowing. A holder job from
	// a third tenant keeps the one slot until both backlogs are queued,
	// gold's first, so the drain order is DRR's alone rather than the
	// clients' arrival order. Completion times count from the holder's.
	const weightedJobs = 10
	backlogQueued := make(chan struct{})
	startDrain := sync.OnceFunc(func() { close(backlogQueued) })
	wsrv, wclient := newDaemon(t, server.Config{
		MaxJobs:      1,
		QueueDepth:   256,
		Quantum:      2,
		TenantQuanta: map[string]int{"gold": 4},
		RunAll: func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error) {
			select {
			case <-backlogQueued:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			select {
			case <-time.After(jobCost):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			out := make([]lsnuma.PointResult, len(points))
			for i, pt := range points {
				out[i] = lsnuma.PointResult{Point: pt, Result: &lsnuma.Result{}}
				if opt.OnPoint != nil {
					opt.OnPoint(i, out[i])
				}
			}
			return out, nil
		},
	})
	t.Cleanup(startDrain) // a failed wait must not leave the slot held
	type completion struct {
		tenant string
		at     time.Time
		status int
	}
	holderDone := make(chan completion, 1)
	go func() {
		_, status, _ := wclient.Point(ctx, `{"tenant":"holder"}`)
		holderDone <- completion{tenant: "holder", at: time.Now(), status: status}
	}()
	waitFor(t, func() bool { return wsrv.Inflight() == 1 })
	done := make(chan completion, 2*weightedJobs)
	var wg sync.WaitGroup
	submit := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, err := wclient.Stream(ctx, "compare", fmt.Sprintf(`{"tenant":%q}`, tenant), func(server.StreamRecord) error { return nil })
			if err != nil {
				t.Errorf("%s compare job: status %d: %v", tenant, status, err)
			}
			done <- completion{tenant: tenant, at: time.Now(), status: status}
		}()
	}
	submit("gold")
	waitFor(t, func() bool { return wsrv.QueueDepth() == 1 })
	for i := 1; i < weightedJobs; i++ {
		submit("gold")
	}
	for i := 0; i < weightedJobs; i++ {
		submit("bronze")
	}
	waitFor(t, func() bool { return wsrv.QueueDepth() == 2*weightedJobs })
	startDrain()
	holder := <-holderDone
	if holder.status != http.StatusOK {
		t.Fatalf("holder job = %d, want 200", holder.status)
	}
	t0 := holder.at
	wg.Wait()
	close(done)
	var goldSum, bronzeSum time.Duration
	for c := range done {
		if c.status != http.StatusOK {
			t.Fatalf("%s job = %d, want 200", c.tenant, c.status)
		}
		if c.tenant == "gold" {
			goldSum += c.at.Sub(t0)
		} else {
			bronzeSum += c.at.Sub(t0)
		}
	}
	goldMean := goldSum / weightedJobs
	bronzeMean := bronzeSum / weightedJobs
	t.Logf("weighted quanta: gold mean completion %v, bronze mean %v", goldMean, bronzeMean)
	// In this drain order the 2:1 quanta put gold's mean at 0.64x
	// bronze's; unweighted DRR, alternating the two from gold's first
	// visit, would put it at 0.91x. 0.8 splits the difference with
	// headroom for scheduling noise.
	if goldMean > bronzeMean*8/10 {
		t.Errorf("gold mean completion %v vs bronze %v: want gold <= 0.8x bronze under 2:1 quanta", goldMean, bronzeMean)
	}
}

// TestCrashRestartSIGKILL is the real thing: a built lsnumad binary,
// kill -9 mid-sweep, restart on the same -state-dir, and the journaled
// job completes with the stream byte-identical to lssweep. This is the
// in-tree twin of the CI shell smoke.
func TestCrashRestartSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real daemon; skipped in -short")
	}
	bin := buildLsnumad(t)
	stateDir := t.TempDir()
	addr := freeAddr(t)
	ctx := context.Background()

	// -j 1 keeps points sequential so the SIGKILL lands mid-sweep.
	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-jobs", "1", "-j", "1", "-state-dir", stateDir)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start lsnumad: %v", err)
		}
		return cmd
	}
	client := New("http://" + addr)
	waitUp := func() {
		waitFor(t, func() bool {
			_, status, err := client.Healthz(ctx)
			return err == nil && status == http.StatusOK
		})
	}

	cmd1 := start()
	waitUp()

	// Small scale: sequential points take ~30ms each, so the SIGKILL
	// lands mid-sweep with a couple hundred ms to spare.
	errKilled := errors.New("kill -9")
	var jobID string
	_, err := client.Stream(ctx, "sweep", `{"workload":"mp3d","sweep":"block","scale":"small","tenant":"ci"}`,
		func(rec server.StreamRecord) error {
			if rec.Type == "job" {
				jobID = rec.ID
			}
			if rec.Type == "cell" {
				cmd1.Process.Kill() //nolint:errcheck // SIGKILL mid-sweep is the point
				return errKilled
			}
			return nil
		})
	cmd1.Wait() //nolint:errcheck // killed
	if jobID == "" {
		t.Fatalf("no job id before the kill (stream err=%v)", err)
	}

	cmd2 := start()
	defer func() {
		cmd2.Process.Kill() //nolint:errcheck
		cmd2.Wait()         //nolint:errcheck
	}()
	waitUp()

	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, status, err := client.JobStatus(ctx, jobID)
		if err == nil && status == http.StatusOK && st.State == "done" {
			if st.Percent != 100 || st.Attempts < 2 {
				t.Fatalf("replayed job = %+v, want 100%% with a second attempt", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journaled job never completed after restart: %+v status=%d err=%v", st, status, err)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Warm stream from the restarted daemon == lssweep stdout.
	results, err := lsnuma.Sweep(ctx, lsnuma.DefaultConfig(), lsnuma.SweepBlock, "mp3d", lsnuma.ScaleSmall,
		lsnuma.RunOptions{Cache: openCache(t, filepath.Join(stateDir, "cache"))})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, pt := range results {
		text, _ := report.SweepCell(pt)
		want.WriteString(text)
	}
	recs, status, err := client.Sweep(ctx, `{"workload":"mp3d","sweep":"block","scale":"small"}`)
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-restart sweep: status=%d err=%v", status, err)
	}
	var got strings.Builder
	for _, r := range recs {
		if r.Type == "cell" {
			got.WriteString(r.Text)
		}
	}
	if got.String() != want.String() {
		t.Errorf("post-SIGKILL sweep is not byte-identical to lssweep stdout:\n--- daemon ---\n%s--- lssweep ---\n%s", got.String(), want.String())
	}
}

// buildLsnumad builds the daemon binary into a test temp dir.
func buildLsnumad(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lsnumad")
	if out, err := exec.Command("go", "build", "-o", bin, "lsnuma/cmd/lsnumad").CombinedOutput(); err != nil {
		t.Fatalf("go build lsnumad: %v\n%s", err, out)
	}
	return bin
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestSIGTERMAfterFirstHealthz signals a real daemon the moment it first
// answers /healthz: the drain handler is installed before the listener
// serves, so the daemon must drain and exit 0 rather than die to the
// default SIGTERM action.
func TestSIGTERMAfterFirstHealthz(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real daemon; skipped in -short")
	}
	bin := buildLsnumad(t)
	addr := freeAddr(t)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start lsnumad: %v", err)
	}
	client := New("http://" + addr)
	waitFor(t, func() bool {
		_, status, err := client.Healthz(context.Background())
		return err == nil && status == http.StatusOK
	})
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("lsnumad after an early SIGTERM: %v, want exit 0\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained, bye") {
		t.Errorf("lsnumad did not drain on SIGTERM:\n%s", stderr.String())
	}
}
