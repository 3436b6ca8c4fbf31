// Package server implements lsnumad, the sweep-as-a-service daemon:
// an HTTP front end that multiplexes sweep/point/compare jobs from many
// clients onto the bounded runner pool, shares one result cache (with
// single-flight stampede protection) across all of them, and degrades
// under pressure instead of falling over.
//
// The service applies the paper's resource-exhaustion discipline (PR 4's
// bounded MSHRs with NACK/retry) at the job layer: a bounded execution
// pool, a bounded admission queue, and an explicit 429 + Retry-After
// NACK when both are full. Panics in a job are isolated to a structured
// 500 carrying the repro bundle; SIGTERM triggers a graceful drain that
// stops admitting, finishes in-flight jobs and exits within a deadline.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lsnuma"
	"lsnuma/internal/report"
	"lsnuma/internal/server/journal"
	"lsnuma/internal/version"
	"lsnuma/internal/workload"
)

// maxRequestBytes bounds a job request body; configs are small.
const maxRequestBytes = 1 << 20

// Config parameterizes a Server. The zero value is usable: defaults are
// applied by New.
type Config struct {
	// MaxJobs bounds the number of jobs executing at once (default 2).
	// Each job runs its points on its own RunAll pool, so total
	// simulation parallelism is roughly MaxJobs * Parallelism.
	MaxJobs int
	// QueueDepth bounds each tenant's queue of jobs waiting for an
	// execution slot (default 8), the anonymous clients' default bucket
	// included, so all tenants together can queue maxTenants ×
	// QueueDepth jobs. Arrivals beyond a tenant's cap are NACKed with
	// 429 and a Retry-After estimate without affecting other tenants.
	QueueDepth int
	// Quantum is the deficit-round-robin quantum in points (default 8):
	// how much job cost each tenant with queued work earns per
	// scheduling round. One sweep cell's worth (len(Protocols())) or
	// more keeps small jobs flowing past a tenant with big ones queued.
	Quantum int
	// TenantQuanta overrides Quantum per named tenant: a tenant earning
	// 2x the default quantum per round drains roughly twice the points
	// per pass (weighted DRR — paying tenants go faster without starving
	// anyone). Non-positive entries are ignored.
	TenantQuanta map[string]int
	// Journal, if non-nil, write-ahead-logs every accepted job and
	// enables /api/v1/jobs plus crash recovery (Recover). Journaled
	// jobs run detached from their client connection: a disconnect
	// stops the response stream but not the job, whose results stay
	// durable in the cache and whose state lands in the journal.
	Journal *journal.Journal
	// Parallelism is each job's RunAll worker bound (default 0: all
	// cores).
	Parallelism int
	// PointTimeout is the server-wide per-point wall-clock ceiling
	// (0 = none). Requests may lower it per job, never raise it.
	PointTimeout time.Duration
	// Cache is the shared result cache. Nil selects a dedup-only cache
	// (lsnuma.NewDedupCache): no persistence, but concurrent identical
	// points across all clients still collapse into one simulation.
	Cache *lsnuma.ResultCache
	// RunAll overrides the simulation engine (default lsnuma.RunAll) —
	// a seam for load tests that need deterministic job durations.
	RunAll func(ctx context.Context, points []lsnuma.Point, opt lsnuma.RunOptions) ([]lsnuma.PointResult, error)
	// Logf receives operational warnings (journal corruption, replay
	// failures). Nil discards them.
	Logf func(format string, args ...any)
}

// Server is the daemon core: admission control, job execution, metrics
// and drain. Create with New, mount Handler on an http.Server, and call
// Drain on shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	mux     *http.ServeMux

	fq       *fairQueue   // execution slots + per-tenant admission queues
	inflight atomic.Int64 // jobs holding a slot

	draining  atomic.Bool
	drainCh   chan struct{} // closed when draining starts
	drainOnce sync.Once

	jobsCtx  context.Context // cancelled to abort in-flight simulations
	stopJobs context.CancelFunc
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 8
	}
	if cfg.Cache == nil {
		cfg.Cache = lsnuma.NewDedupCache()
	}
	if cfg.RunAll == nil {
		cfg.RunAll = lsnuma.RunAll
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		mux:      http.NewServeMux(),
		fq:       newFairQueue(cfg.MaxJobs, cfg.Quantum, cfg.QueueDepth, cfg.TenantQuanta),
		drainCh:  make(chan struct{}),
		jobsCtx:  ctx,
		stopJobs: cancel,
	}
	if cfg.Journal != nil {
		s.metrics.JournalCorrupt.Store(cfg.Journal.CorruptRecords())
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	for _, endpoint := range endpoints {
		s.mux.HandleFunc("POST /api/v1/"+endpoint, s.isolate(s.serveJob(endpoint)))
	}
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counters for tests and embedding binaries.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Draining reports whether a drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth returns the current number of jobs waiting for a slot.
func (s *Server) QueueDepth() int64 { return int64(s.fq.queueDepth()) }

// Inflight returns the current number of jobs holding a slot.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Drain performs a graceful shutdown of the job layer: stop admitting
// (new arrivals get 503, queued waiters are bounced), let in-flight
// jobs finish, and return once queue and pool are both empty. If ctx
// expires first, in-flight simulations are aborted via their contexts
// and ctx's error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.fq.queueDepth() == 0 && s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.stopJobs()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close aborts everything immediately (used after a failed Drain).
func (s *Server) Close() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
	s.stopJobs()
}

// ---------------------------------------------------------------------
// Admission control.

// newJobID returns a fresh random job identifier (file-name safe,
// collision-free across restarts of the same state dir).
func newJobID() string {
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck // crypto/rand does not fail on supported platforms
	return "j" + hex.EncodeToString(b[:])
}

// admit implements the NACK discipline in front of the execution pool:
// deficit-round-robin fair queueing across tenants, write-ahead
// journaling of every acceptance, and an explicit 429/503 NACK when the
// tenant's queue is full or the daemon is draining. It returns the
// journaled job ID (empty without a journal), a release function and
// true when the job may run; on false the response has already been
// written or the client is gone.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, j *job) (jobID string, release func(), ok bool) {
	if s.draining.Load() {
		s.rejectDraining(w)
		return "", nil, false
	}
	wt, _, rejected := s.fq.acquire(j.req.Tenant, len(j.points))
	if rejected {
		q := int64(s.fq.queueDepth())
		s.metrics.Rejected.Add(1)
		s.metrics.rejectTenant(j.req.Tenant)
		w.Header().Set("Retry-After", strconv.Itoa(s.metrics.retryAfterSeconds(q, s.cfg.MaxJobs)))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": "job queue is full; retry after the indicated backoff",
		})
		return "", nil, false
	}
	// Journal the acceptance before the job may run: from here on a
	// crash replays it. Rejections above never reach the journal.
	waitDone := r.Context().Done()
	if jn := s.cfg.Journal; jn != nil {
		jobID = newJobID()
		body, err := json.Marshal(j.req)
		if err == nil {
			err = jn.Append(journal.Record{
				ID: jobID, Endpoint: j.endpoint, Tenant: j.req.Tenant,
				Request: body, Points: len(j.points),
			})
		}
		if err != nil {
			if wt == nil || s.fq.abandon(wt) {
				s.fq.release()
			}
			writeJSON(w, http.StatusInternalServerError, map[string]string{
				"error": "cannot journal job: " + err.Error(),
			})
			return "", nil, false
		}
		// Journaled jobs wait detached from the client connection: the
		// journal owns them now, and a disconnect must not dequeue work
		// the daemon has durably promised to run.
		waitDone = s.jobsCtx.Done()
	}
	release, drained := s.claim(wt, waitDone)
	if drained {
		// The journal record (if any) stays queued — the next startup
		// replays it.
		s.rejectDraining(w)
	}
	return jobID, release, release != nil
}

// claim takes the execution slot acquire gave a job: at once when wt is
// nil (the slot was granted outright), else once wt's turn comes. It
// returns the slot's release function, or nil when the job must not
// run: done fired first (the job is abandoned), or the drain began
// (drained), in which case the slot has been given back.
func (s *Server) claim(wt *waiter, done <-chan struct{}) (release func(), drained bool) {
	if wt != nil {
		s.metrics.QueuedTotal.Add(1)
		select {
		case <-wt.ready:
		case <-done:
			if s.fq.abandon(wt) {
				s.fq.release()
			}
			s.metrics.AbandonedQueue.Add(1)
			return nil, false
		case <-s.drainCh:
			if s.fq.abandon(wt) {
				s.fq.release()
			}
			return nil, true
		}
	}
	// Publish the in-flight claim before re-checking the drain flag:
	// if Drain's zero-poll missed this increment it must have stored
	// the flag first, so we observe it here and bounce — no job can
	// slip past a completed drain. The journal record is still queued
	// here, so a bounced job is replayed after restart, never stranded
	// as running.
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Add(-1)
		s.fq.release()
		return nil, true
	}
	s.metrics.Admitted.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.inflight.Add(-1)
			s.fq.release()
		})
	}, false
}

func (s *Server) rejectDraining(w http.ResponseWriter) {
	s.metrics.RejectedDraining.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error": "daemon is draining; no new jobs accepted",
	})
}

// jobContext derives a job's context. Without a journal it is
// cancelled when the client goes away, when the request handler
// returns, or when the server aborts in-flight work (drain deadline,
// Close). A journaled job is NOT a child of the client connection: the
// daemon promised the work durably, so only server shutdown cancels it
// — the client may reconnect and poll /api/v1/jobs/<id>.
func (s *Server) jobContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.Journal != nil {
		return context.WithCancel(s.jobsCtx)
	}
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.jobsCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// cursorHook wraps a journaled job's OnPoint callback so every
// successful completion also advances the journal's per-job cursor —
// the percent-complete that /api/v1/jobs/<id> reports across restarts.
// Failed points (including ones aborted by a crash-in-progress) do not
// count: the cursor must never run ahead of what the result cache has
// durably persisted, and the cache is only written on success — before
// OnPoint fires. Without a job ID it returns inner unchanged.
func (s *Server) cursorHook(jobID string, inner func(int, lsnuma.PointResult)) func(int, lsnuma.PointResult) {
	if jobID == "" {
		return inner
	}
	var done atomic.Int64
	return func(i int, pr lsnuma.PointResult) {
		if inner != nil {
			inner(i, pr)
		}
		if pr.Err != nil {
			return
		}
		if err := s.cfg.Journal.SetProgress(jobID, int(done.Add(1))); err != nil {
			s.cfg.Logf("journal: %v", err)
		}
	}
}

// isolate wraps a job handler so a panic becomes a structured 500
// instead of killing the daemon. On an NDJSON stream that is already
// open, whose status has gone out, the panic ends the stream with a
// "done" trailer naming it, so every line stays a record.
func (s *Server) isolate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			s.metrics.Panics.Add(1)
			msg := fmt.Sprintf("internal panic: %v", rec)
			if w.Header().Get("Content-Type") == ndjsonType {
				json.NewEncoder(w).Encode(StreamRecord{Type: "done", Error: msg}) //nolint:errcheck // the client may be gone
				return
			}
			writeJSON(w, http.StatusInternalServerError, map[string]string{
				"error": msg,
				"stack": string(debug.Stack()),
			})
		}()
		h(w, r)
	}
}

// ---------------------------------------------------------------------
// Requests.

// tenantPattern bounds tenant names: short, file-name and label safe.
var tenantPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,32}$`)

// JobRequest is the JSON body of the point, sweep and compare
// endpoints.
type JobRequest struct {
	// Tenant names the fair-queueing bucket this job is admitted under
	// ([A-Za-z0-9._-]{1,32}). Empty selects the shared default bucket,
	// preserving pre-tenant behavior for anonymous clients.
	Tenant string `json:"tenant,omitempty"`
	// Workload names the program to simulate (default "mp3d").
	Workload string `json:"workload,omitempty"`
	// Scale is "test" (default), "small" or "paper".
	Scale string `json:"scale,omitempty"`
	// Sweep selects the Table 1 axis for /api/v1/sweep: block, l1, l2
	// or nodes. Ignored by the other endpoints.
	Sweep string `json:"sweep,omitempty"`
	// Config overrides fields of the workload's default lsnuma.Config
	// (unknown fields are rejected). The point endpoint reads the
	// protocol from Config.Protocol; sweep and compare run every
	// protocol.
	Config json.RawMessage `json:"config,omitempty"`
	// PointTimeoutMs lowers the per-point deadline below the server's
	// ceiling for this job (0 = server default).
	PointTimeoutMs int64 `json:"point_timeout_ms,omitempty"`
}

// job is one request expanded into the points it runs: what the
// handlers and the journal replay share from parsing to the final
// accounting.
type job struct {
	endpoint string
	req      JobRequest
	grid     []lsnuma.SweepPoint // the sweep's cells; nil unless a sweep
	points   []lsnuma.Point
}

// newJob decodes and validates a request body for endpoint and expands
// it into the job's points: the configuration itself for "point", its
// Table 1 grid along the requested axis under every protocol for
// "sweep", and the configuration under every protocol for "compare".
func newJob(endpoint string, body io.Reader) (*job, error) {
	j := &job{endpoint: endpoint}
	req := &j.req
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if req.Tenant != "" && !tenantPattern.MatchString(req.Tenant) {
		return nil, fmt.Errorf("bad tenant %q (want 1-32 chars of [A-Za-z0-9._-])", req.Tenant)
	}
	if req.Workload == "" {
		req.Workload = "mp3d"
	}
	if !slices.Contains(lsnuma.Workloads(), req.Workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", req.Workload, lsnuma.Workloads())
	}
	scale := lsnuma.ScaleTest
	if req.Scale != "" {
		var err error
		if scale, err = workload.ParseScale(req.Scale); err != nil {
			return nil, err
		}
	}
	base := lsnuma.WorkloadConfig(req.Workload)
	if len(req.Config) > 0 {
		over := json.NewDecoder(bytes.NewReader(req.Config))
		over.DisallowUnknownFields()
		if err := over.Decode(&base); err != nil {
			return nil, fmt.Errorf("bad config override: %w", err)
		}
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("invalid config: %w", err)
	}
	switch endpoint {
	case "point":
		j.points = []lsnuma.Point{{
			Label:    req.Workload + "/" + base.ProtocolName(),
			Config:   base,
			Workload: req.Workload,
			Scale:    scale,
		}}
	case "sweep":
		if req.Sweep == "" {
			return nil, errors.New(`missing "sweep" (want block, l1, l2, nodes)`)
		}
		var err error
		if j.grid, j.points, err = lsnuma.SweepPoints(lsnuma.SweepParam(req.Sweep), base, req.Workload, scale); err != nil {
			return nil, err
		}
	case "compare":
		j.points = lsnuma.ComparePoints(base, req.Workload, scale)
	default:
		return nil, fmt.Errorf("unknown endpoint %q", endpoint)
	}
	return j, nil
}

// runOpts assembles the RunOptions for one job: the server's pool
// bound, the tighter of the server and request point deadlines, the
// shared cache, and the streaming hook.
func (s *Server) runOpts(req JobRequest, onPoint func(int, lsnuma.PointResult)) lsnuma.RunOptions {
	pt := s.cfg.PointTimeout
	if req.PointTimeoutMs > 0 {
		rt := time.Duration(req.PointTimeoutMs) * time.Millisecond
		if pt == 0 || rt < pt {
			pt = rt
		}
	}
	return lsnuma.RunOptions{
		Parallelism:  s.cfg.Parallelism,
		PointTimeout: pt,
		Cache:        s.cfg.Cache,
		OnPoint:      onPoint,
	}
}

// run executes an admitted job through the RunAll seam — the only
// call into it — and returns the points' results, the failed-point
// count and RunAll's error. A journaled job (non-empty jobID) is
// flipped to running first, its cursor advances with every successful
// point, and it ends done, or failed when points failed. A job cut short
// by server shutdown keeps its running state so the next startup
// replays it; point failures are terminal, since they are deterministic
// and a replay would only fail again.
func (s *Server) run(ctx context.Context, j *job, jobID string, start time.Time, onPoint func(int, lsnuma.PointResult)) ([]lsnuma.PointResult, int, error) {
	jn := s.cfg.Journal
	if jobID != "" {
		if err := jn.SetState(jobID, journal.StateRunning, ""); err != nil {
			s.cfg.Logf("journal: %v", err)
		}
	}
	results, err := s.cfg.RunAll(ctx, j.points, s.runOpts(j.req, s.cursorHook(jobID, onPoint)))
	failed := s.finishJob(j.endpoint, start, results)
	if jobID != "" && s.jobsCtx.Err() == nil {
		state, msg := journal.StateDone, ""
		if failed > 0 {
			state, msg = journal.StateFailed, fmt.Sprintf("%d of %d points failed", failed, len(results))
		}
		if err := jn.SetState(jobID, state, msg); err != nil {
			s.cfg.Logf("journal: %v", err)
		}
	}
	return results, failed, err
}

// finishJob accounts a completed job's points into the metrics and
// returns the failed-point count.
func (s *Server) finishJob(endpoint string, start time.Time, results []lsnuma.PointResult) int {
	failed := 0
	for _, pr := range results {
		var nacks, retries uint64
		if pr.Result != nil {
			nacks, retries = pr.Result.Resil.Nacks, pr.Result.Resil.Retries
		}
		s.metrics.point(pr.Err != nil, pr.Cached, pr.Deduped, nacks, retries)
		if pr.Err != nil {
			failed++
		}
	}
	s.metrics.Completed.Add(1)
	if failed > 0 {
		s.metrics.JobFailures.Add(1)
	}
	s.metrics.observe(endpoint, time.Since(start))
	return failed
}

// ---------------------------------------------------------------------
// Responses.

// ReproInfo is the JSON rendering of a failed point's diagnostic
// bundle.
type ReproInfo struct {
	Workload   string   `json:"workload"`
	Scale      string   `json:"scale"`
	Diagnosis  string   `json:"diagnosis,omitempty"`
	Retry      string   `json:"retry,omitempty"`
	LastOps    []string `json:"last_ops,omitempty"`
	StackBytes int      `json:"stack_bytes,omitempty"`
	// Text is the human rendering (report.ReproText), identical to the
	// indented block lssweep prints under a FAILED cell.
	Text string `json:"text,omitempty"`
}

func reproInfo(b *lsnuma.ReproBundle) *ReproInfo {
	if b == nil {
		return nil
	}
	ri := &ReproInfo{
		Workload:   b.Workload,
		Scale:      b.Scale.String(),
		Diagnosis:  b.Diagnosis,
		Retry:      b.Retry,
		StackBytes: len(b.Stack),
		Text:       report.ReproText(b, ""),
	}
	for _, op := range b.LastOps {
		ri.LastOps = append(ri.LastOps, op.String())
	}
	return ri
}

// PointResponse is the point endpoint's JSON reply.
type PointResponse struct {
	// JobID is the journaled job identifier (empty without -state-dir).
	JobID     string         `json:"job_id,omitempty"`
	Label     string         `json:"label"`
	Result    *lsnuma.Result `json:"result,omitempty"`
	Cached    bool           `json:"cached,omitempty"`
	Deduped   bool           `json:"deduped,omitempty"`
	Error     string         `json:"error,omitempty"`
	Repro     *ReproInfo     `json:"repro,omitempty"`
	ElapsedMs int64          `json:"elapsed_ms"`
}

// StreamRecord is one NDJSON line of a sweep or compare stream. Type is
// "job" (stream header), "cell" (one sweep grid point), "point" (one
// compare protocol), or "done" (trailer).
type StreamRecord struct {
	Type     string `json:"type"`
	Endpoint string `json:"endpoint,omitempty"`
	Version  string `json:"version,omitempty"`
	// ID is the journaled job identifier in the header record (empty
	// without -state-dir); poll /api/v1/jobs/<id> with it.
	ID string `json:"id,omitempty"`
	// Points and Cells size the job in the header record.
	Points int `json:"points,omitempty"`
	Cells  int `json:"cells,omitempty"`

	Index    int            `json:"index,omitempty"`
	Label    string         `json:"label,omitempty"`
	Protocol string         `json:"protocol,omitempty"`
	Result   *lsnuma.Result `json:"result,omitempty"`
	Cached   bool           `json:"cached,omitempty"`
	Deduped  bool           `json:"deduped,omitempty"`
	// Errors maps protocol to failure for a sweep cell's holes.
	Errors map[string]string `json:"errors,omitempty"`
	Error  string            `json:"error,omitempty"`
	Repro  *ReproInfo        `json:"repro,omitempty"`
	// Text is the cell rendered exactly as lssweep prints it.
	Text string `json:"text,omitempty"`

	Failed    int   `json:"failed,omitempty"`
	ElapsedMs int64 `json:"elapsed_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing useful to do on a dead client
}

// ndjsonWriter serializes NDJSON records onto a streamed response,
// flushing after each one so clients see results as they complete.
type ndjsonWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	rc  *http.ResponseController
	err error
}

// ndjsonType is a stream's Content-Type; isolate reads it to tell an
// open stream.
const ndjsonType = "application/x-ndjson"

func newNDJSON(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", ndjsonType)
	return &ndjsonWriter{enc: json.NewEncoder(w), rc: http.NewResponseController(w)}
}

func (n *ndjsonWriter) write(rec StreamRecord) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err != nil {
		return
	}
	if err := n.enc.Encode(rec); err != nil {
		n.err = err
		return
	}
	n.rc.Flush() //nolint:errcheck // flush is best-effort on streams
}

// ---------------------------------------------------------------------
// Handlers.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"queue":    s.fq.queueDepth(),
		"inflight": s.inflight.Load(),
		"version":  version.Version,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Cache.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, gauges{
		queueDepth:  int64(s.fq.queueDepth()),
		inflight:    s.inflight.Load(),
		draining:    s.draining.Load(),
		cacheHits:   st.Hits,
		cacheMiss:   st.Misses,
		cacheSkips:  st.Skips,
		cacheErrs:   st.Errors,
		cacheDedup:  st.Dedups,
		tenantDepth: s.fq.tenantDepths(),
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"binary":  "lsnumad",
		"version": version.Version,
		"detail":  version.String("lsnumad"),
	})
}

// serveJob returns the handler of one job endpoint: newJob parses and
// expands the request (400 on a bad one), admit queues and journals it,
// and the job runs under jobContext. A point job answers with plain
// JSON; sweep and compare jobs stream NDJSON.
func (s *Server) serveJob(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		j, err := newJob(endpoint, http.MaxBytesReader(nil, r.Body, maxRequestBytes))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		jobID, release, ok := s.admit(w, r, j)
		if !ok {
			return
		}
		defer release()
		ctx, cancel := s.jobContext(r)
		defer cancel()
		if endpoint == "point" {
			s.answerPoint(ctx, w, r, j, jobID, start)
		} else {
			s.stream(ctx, w, j, jobID, start)
		}
	}
}

// answerPoint runs a point job and replies with plain JSON: 200 with the
// result, 500 with the repro bundle on a failed simulation, 504 on a
// point deadline, 503 when the server aborted the job.
func (s *Server) answerPoint(ctx context.Context, w http.ResponseWriter, r *http.Request, j *job, jobID string, start time.Time) {
	results, _, _ := s.run(ctx, j, jobID, start, nil)
	pr := results[0]
	resp := PointResponse{
		JobID:     jobID,
		Label:     pr.Label,
		Result:    pr.Result,
		Cached:    pr.Cached,
		Deduped:   pr.Deduped,
		Repro:     reproInfo(pr.Repro),
		ElapsedMs: time.Since(start).Milliseconds(),
	}
	switch {
	case pr.Err == nil:
		writeJSON(w, http.StatusOK, resp)
	case r.Context().Err() != nil:
		// Client gone: nothing to write.
	default:
		resp.Error = pr.Err.Error()
		status := http.StatusInternalServerError
		if errors.Is(pr.Err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else if s.jobsCtx.Err() != nil {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, resp)
	}
}

// stream runs a sweep or compare job and streams NDJSON: a "job" header,
// one record per unit in order as soon as the unit's points have all
// completed, and a "done" trailer. A sweep's unit is a grid cell (one
// point per protocol) and its "cell" record's text is byte-identical to
// the block lssweep prints for the cell; a compare's unit is one
// protocol's "point" record.
func (s *Server) stream(ctx context.Context, w http.ResponseWriter, j *job, jobID string, start time.Time) {
	head := StreamRecord{
		Type: "job", Endpoint: j.endpoint, Version: version.Version, ID: jobID,
		Label: j.req.Workload, Points: len(j.points),
	}
	width, partial := 1, "points above are partial"
	if j.grid != nil {
		head.Label, head.Cells = j.req.Sweep, len(j.grid)
		width, partial = len(lsnuma.Protocols()), "cells above are partial with annotated holes"
	}
	out := newNDJSON(w)
	out.write(head)

	var (
		mu      sync.Mutex
		results = make([]lsnuma.PointResult, len(j.points))
		units   = newTracker(len(j.points), width)
	)
	// emit streams unit u from results; callers hold mu, and the tracker
	// hands out each unit once, in order.
	emit := func(u int) {
		rec := StreamRecord{Index: u}
		if j.grid != nil {
			cell := lsnuma.CellResult(j.grid[u], results[u*width:(u+1)*width])
			rec.Type, rec.Label = "cell", cell.Label
			rec.Text, _ = report.SweepCell(cell)
			for p, err := range cell.Errs {
				if rec.Errors == nil {
					rec.Errors = make(map[string]string, len(cell.Errs))
				}
				rec.Errors[string(p)] = err.Error()
			}
		} else {
			pr := results[u]
			rec.Type, rec.Label, rec.Protocol = "point", pr.Label, string(j.points[u].Config.Protocol)
			rec.Result, rec.Cached, rec.Deduped, rec.Repro = pr.Result, pr.Cached, pr.Deduped, reproInfo(pr.Repro)
			if pr.Err != nil {
				rec.Error = pr.Err.Error()
			}
		}
		out.write(rec)
	}
	onPoint := func(i int, pr lsnuma.PointResult) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = pr
		units.done(i, emit)
	}
	final, failed, err := s.run(ctx, j, jobID, start, onPoint)

	// Cancellation-skipped points never reach onPoint; flush the
	// remaining units (annotated holes) from the final slice.
	mu.Lock()
	copy(results, final)
	units.flush(emit)
	mu.Unlock()

	done := StreamRecord{Type: "done", Failed: failed, ElapsedMs: time.Since(start).Milliseconds()}
	if err != nil && ctx.Err() != nil {
		done.Error = fmt.Sprintf("interrupted (%v); %s", ctx.Err(), partial)
	}
	out.write(done)
}

// ---------------------------------------------------------------------
// Job status and crash recovery (journal-backed daemons).

// JobStatus is the /api/v1/jobs JSON rendering of a journal record.
type JobStatus struct {
	ID        string `json:"id"`
	Endpoint  string `json:"endpoint"`
	Tenant    string `json:"tenant,omitempty"`
	State     string `json:"state"`
	Points    int    `json:"points,omitempty"`
	Completed int    `json:"completed,omitempty"`
	// Percent is the completion cursor as a percentage; it survives
	// restarts along with the record.
	Percent   float64   `json:"percent"`
	Attempts  int       `json:"attempts,omitempty"`
	Submitted time.Time `json:"submitted"`
	Updated   time.Time `json:"updated"`
	Error     string    `json:"error,omitempty"`
}

func jobStatus(rec journal.Record) JobStatus {
	st := JobStatus{
		ID: rec.ID, Endpoint: rec.Endpoint, Tenant: rec.Tenant,
		State: string(rec.State), Points: rec.Points, Completed: rec.Completed,
		Attempts: rec.Attempts, Submitted: rec.Submitted, Updated: rec.Updated,
		Error: rec.Error,
	}
	if rec.State == journal.StateDone {
		st.Percent = 100
	} else if rec.Points > 0 {
		st.Percent = 100 * float64(rec.Completed) / float64(rec.Points)
	}
	return st
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Journal == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "job journal disabled; start the daemon with -state-dir",
		})
		return
	}
	rec, ok := s.cfg.Journal.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(rec))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Journal == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "job journal disabled; start the daemon with -state-dir",
		})
		return
	}
	recs := s.cfg.Journal.List()
	out := make([]JobStatus, len(recs))
	for i, rec := range recs {
		out[i] = jobStatus(rec)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// Recover replays the journal's incomplete jobs (queued or running at
// the last shutdown) through the regular fair admission path, each in
// its own goroutine, and returns how many it scheduled. Completed
// points are re-read from the result cache, so a replay recomputes only
// what was genuinely lost in flight. Call once after New, before
// serving traffic (replays and fresh arrivals then contend fairly).
func (s *Server) Recover() int {
	if s.cfg.Journal == nil {
		return 0
	}
	recs := s.cfg.Journal.Incomplete()
	for _, rec := range recs {
		go s.replay(rec)
	}
	return len(recs)
}

// replay re-runs one journaled job from its canonical request JSON. An
// unparseable record is marked failed (it can never run); a full queue,
// a drain or a shutdown leaves the record untouched for the next
// restart.
func (s *Server) replay(rec journal.Record) {
	start := time.Now()
	j, err := newJob(rec.Endpoint, bytes.NewReader(rec.Request))
	if err != nil {
		s.cfg.Logf("replay %s: unreplayable: %v", rec.ID, err)
		s.cfg.Journal.SetState(rec.ID, journal.StateFailed, "unreplayable: "+err.Error()) //nolint:errcheck
		return
	}
	wt, _, rejected := s.fq.acquire(j.req.Tenant, len(j.points))
	if rejected {
		s.cfg.Logf("replay %s: queue full; left %s for the next restart", rec.ID, rec.State)
		return
	}
	release, _ := s.claim(wt, s.jobsCtx.Done())
	if release == nil {
		return
	}
	defer release()
	s.metrics.Recovered.Add(1)
	s.run(s.jobsCtx, j, rec.ID, start, nil) //nolint:errcheck // the journal and metrics record the outcome
}
