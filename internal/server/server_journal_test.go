package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lsnuma/internal/server/journal"
)

func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJobsEndpoint: a journaled job's ID comes back in the response and
// /api/v1/jobs/<id> reports its terminal state; without a journal the
// endpoint explains how to enable it.
func TestJobsEndpoint(t *testing.T) {
	bare := New(Config{})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	resp, err := http.Get(tsBare.URL + "/api/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	var msg struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&msg) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(msg.Error, "-state-dir") {
		t.Fatalf("journal-less /jobs = %d %q, want 404 pointing at -state-dir", resp.StatusCode, msg.Error)
	}

	srv := New(Config{Journal: openJournal(t, t.TempDir())})
	fakeRunNow(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp = postPoint(t, ts, `{"tenant":"team-a"}`)
	var pr PointResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.JobID == "" {
		t.Fatal("journaled point response missing job_id")
	}

	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + pr.JobID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "done" || st.Percent != 100 || st.Tenant != "team-a" || st.Attempts != 1 {
		t.Fatalf("job status = %+v, want done/100%%/team-a/1 attempt", st)
	}

	resp, err = http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != pr.JobID {
		t.Fatalf("job list = %+v, want the one job", list.Jobs)
	}
}

// TestDrainLeavesJournaledJobQueued is the drain/journal race
// regression: a job accepted-and-journaled but still waiting for a slot
// when drain begins must be left queued (never running), so the next
// startup replays it. The sibling of the inflight-before-recheck drain
// test. The queued job is each endpoint's request in turn, and its
// replay must complete every point the original admission counted.
func TestDrainLeavesJournaledJobQueued(t *testing.T) {
	for _, tc := range []struct {
		endpoint, body string
		points         int
	}{
		{"point", `{}`, 1},
		{"sweep", `{"sweep":"block"}`, 12},
		{"compare", `{}`, 3},
	} {
		t.Run(tc.endpoint, func(t *testing.T) {
			dir := t.TempDir()
			srv := New(Config{MaxJobs: 1, QueueDepth: 2, Journal: openJournal(t, dir)})
			started, release := fakeRun(srv)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			codes := make(chan int, 2)
			post := func(endpoint, body string) {
				resp, err := http.Post(ts.URL+"/api/v1/"+endpoint, "application/json", strings.NewReader(body))
				if err != nil {
					codes <- -1
					return
				}
				resp.Body.Close()
				codes <- resp.StatusCode
			}
			go post("point", `{}`) // job A takes the slot and blocks in fakeRun
			<-started
			go post(tc.endpoint, tc.body) // job B is journaled, then waits in the queue
			waitFor(t, func() bool { return srv.QueueDepth() == 1 })

			drained := make(chan error, 1)
			go func() { drained <- srv.Drain(t.Context()) }()
			waitFor(t, srv.Draining)

			// B is bounced with 503 while A is still running.
			if got := <-codes; got != http.StatusServiceUnavailable {
				t.Fatalf("queued job during drain = %d, want 503", got)
			}
			close(release)
			if err := <-drained; err != nil {
				t.Fatalf("Drain = %v", err)
			}
			if got := <-codes; got != http.StatusOK {
				t.Fatalf("in-flight job during drain = %d, want 200", got)
			}

			// The journal (reopened, as a restart would) must hold exactly
			// one record — job B, still queued, never flipped to running.
			// A's record left the disk when A finished.
			j2 := openJournal(t, dir)
			inc := j2.Incomplete()
			if len(inc) != 1 || inc[0].State != journal.StateQueued || inc[0].Endpoint != tc.endpoint {
				t.Fatalf("Incomplete after drain = %+v, want one queued %s record", inc, tc.endpoint)
			}
			if got := len(j2.List()); got != 1 {
				t.Fatalf("journal has %d records, want 1 (A finished, B queued)", got)
			}

			// A restarted daemon replays B to completion, expanding the
			// same points the original admission counted.
			srv2 := New(Config{Journal: j2})
			fakeRunNow(srv2)
			if n := srv2.Recover(); n != 1 {
				t.Fatalf("Recover = %d, want 1", n)
			}
			var rec journal.Record
			waitFor(t, func() bool {
				var ok bool
				rec, ok = j2.Get(inc[0].ID)
				return ok && rec.State == journal.StateDone
			})
			if rec.Points != tc.points || rec.Completed != rec.Points {
				t.Fatalf("replayed %s job completed %d of %d points, want %d of %d",
					tc.endpoint, rec.Completed, rec.Points, tc.points, tc.points)
			}
			if got := srv2.Metrics().Recovered.Load(); got != 1 {
				t.Fatalf("Recovered = %d, want 1", got)
			}
		})
	}
}

// TestTenantQueueCapAndMetrics: a tenant at its queue cap is NACKed
// without affecting other tenants, and both the per-tenant depth gauge
// and rejection counter are exported.
func TestTenantQueueCapAndMetrics(t *testing.T) {
	srv := New(Config{MaxJobs: 1, QueueDepth: 1})
	started, release := fakeRun(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	codes := make(chan int, 8)
	post := func(body string) {
		resp, err := http.Post(ts.URL+"/api/v1/point", "application/json", strings.NewReader(body))
		if err != nil {
			codes <- -1
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go post(`{"tenant":"greedy"}`) // takes the slot
	<-started
	go post(`{"tenant":"greedy"}`) // fills greedy's queue (cap 1)
	waitFor(t, func() bool { return srv.QueueDepth() == 1 })

	// Greedy over its cap: immediate 429. Another tenant still queues.
	resp, err := http.Post(ts.URL+"/api/v1/point", "application/json", strings.NewReader(`{"tenant":"greedy"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap tenant job = %d, want 429", resp.StatusCode)
	}
	go post(`{"tenant":"light"}`)
	waitFor(t, func() bool { return srv.QueueDepth() == 2 })

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(m.Body)
	m.Body.Close()
	text := string(body)
	for _, want := range []string{
		`lsnumad_tenant_queue_depth{tenant="greedy"} 1`,
		`lsnumad_tenant_queue_depth{tenant="light"} 1`,
		`lsnumad_tenant_rejected_total{tenant="greedy"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	close(release)
	for i := 0; i < 3; i++ {
		if got := <-codes; got != http.StatusOK {
			t.Fatalf("admitted job %d = %d, want 200", i, got)
		}
	}
}

// TestJournalCorruptCounterExported: a daemon started over a state dir
// with a corrupt record serves (not crashes) and reports the skip in
// its metrics.
func TestJournalCorruptCounterExported(t *testing.T) {
	dir := t.TempDir()
	jobs := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobs, "trailing.json"), []byte(`{"id":"trailing","state":"run`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Journal: openJournal(t, dir)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(m.Body)
	m.Body.Close()
	if !strings.Contains(string(body), "lsnumad_journal_corrupt_records_total 1") {
		t.Fatalf("metrics missing corrupt-record counter:\n%s", body)
	}
}
