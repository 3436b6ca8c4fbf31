package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sortedKeys returns a map's keys in sorted order for deterministic
// metric rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// histBoundsMs are the latency histogram bucket upper bounds in
// milliseconds; a final +Inf bucket catches everything beyond. The
// range spans a warm cache hit (~1 ms) to a paper-scale cold sweep
// (minutes).
var histBoundsMs = [...]uint64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// histogram is a fixed-bucket, lock-free latency histogram.
type histogram struct {
	buckets [len(histBoundsMs) + 1]atomic.Uint64
	sumMs   atomic.Uint64
	count   atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	ms := uint64(d.Milliseconds())
	i := sort.Search(len(histBoundsMs), func(i int) bool { return ms <= histBoundsMs[i] })
	h.buckets[i].Add(1)
	h.sumMs.Add(ms)
	h.count.Add(1)
}

// endpoints are the job endpoints, each with a POST route and a latency
// histogram.
var endpoints = []string{"point", "sweep", "compare"}

// Metrics is the daemon's observable state: admission and job counters,
// per-point outcome counters (the stampede test's "exactly one compute"
// assertion reads PointsComputed), aggregated resilience counters from
// the simulated runs, and per-endpoint latency histograms. All fields
// are safe for concurrent use.
type Metrics struct {
	// Admission control.
	Admitted         atomic.Uint64 // jobs that got a slot
	QueuedTotal      atomic.Uint64 // jobs that had to wait for a slot
	Rejected         atomic.Uint64 // 429: queue full
	RejectedDraining atomic.Uint64 // 503: drain in progress
	AbandonedQueue   atomic.Uint64 // queued jobs given up before a slot freed: client gone, or Close

	// Job outcomes.
	Completed   atomic.Uint64 // jobs that ran to completion (holes included)
	JobFailures atomic.Uint64 // jobs with at least one failed point
	Panics      atomic.Uint64 // handler panics caught by the isolation wrapper

	// Per-point outcomes across all jobs.
	PointsComputed atomic.Uint64 // fresh simulations
	PointsCached   atomic.Uint64 // served from the persistent cache
	PointsDeduped  atomic.Uint64 // shared from a concurrent in-flight compute
	PointsFailed   atomic.Uint64 // errors, panics, timeouts, cancellations

	// Resilience counters summed over every completed point's Result
	// (the service-layer mirror of the PR 4 MSHR/NACK machinery).
	Nacks   atomic.Uint64
	Retries atomic.Uint64

	// Durability counters (journal-backed daemons only).
	Recovered      atomic.Uint64 // journaled jobs replayed at startup
	JournalCorrupt atomic.Uint64 // corrupt journal records skipped at startup

	// jobDurEWMAms is an exponentially-weighted moving average of job
	// wall time, feeding the Retry-After estimate on 429s.
	jobDurEWMAms atomic.Uint64

	// tenantRejected counts per-tenant 429s. Cardinality is bounded by
	// the fair queue's maxTenants plus an overflow bucket.
	tenantMu       sync.Mutex
	tenantRejected map[string]uint64

	hist map[string]*histogram
}

// retrySeed is the assumed job duration of the Retry-After estimate
// before the first job completes.
const retrySeed = time.Second

func newMetrics() *Metrics {
	m := &Metrics{
		tenantRejected: make(map[string]uint64),
		hist:           make(map[string]*histogram, len(endpoints)),
	}
	for _, e := range endpoints {
		m.hist[e] = &histogram{}
	}
	return m
}

// rejectTenant accounts one per-tenant 429. Tenants beyond the fair
// queue's cardinality bound collapse into an "other" series so a flood
// of unique names cannot grow the exposition without limit.
func (m *Metrics) rejectTenant(tenant string) {
	if tenant == "" {
		tenant = defaultTenant
	}
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if _, ok := m.tenantRejected[tenant]; !ok && len(m.tenantRejected) >= maxTenants {
		tenant = "other"
	}
	m.tenantRejected[tenant]++
}

// observe records one finished job on endpoint's histogram and folds
// its duration into the Retry-After EWMA.
func (m *Metrics) observe(endpoint string, d time.Duration) {
	if h, ok := m.hist[endpoint]; ok {
		h.observe(d)
	}
	ms := uint64(d.Milliseconds())
	for {
		old := m.jobDurEWMAms.Load()
		ewma := ms
		if old != 0 {
			ewma = (3*old + ms) / 4
		}
		if m.jobDurEWMAms.CompareAndSwap(old, ewma) {
			return
		}
	}
}

// retryAfterSeconds estimates how long a rejected client should back
// off: the queue ahead of it, in units of average job time over the
// available slots, floored at one second. Before the first job
// completes the EWMA is empty and retrySeed stands in — the estimate
// still scales with queue depth on a cold daemon instead of collapsing
// to the floor.
func (m *Metrics) retryAfterSeconds(queued int64, slots int) int {
	ewma := time.Duration(m.jobDurEWMAms.Load()) * time.Millisecond
	if ewma == 0 {
		ewma = retrySeed
	}
	if slots < 1 {
		slots = 1
	}
	est := ewma * time.Duration(queued+1) / time.Duration(slots)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// point accounts one completed point's outcome (and its resilience
// counters) into the per-point totals.
func (m *Metrics) point(failed, cached, deduped bool, nacks, retries uint64) {
	switch {
	case failed:
		m.PointsFailed.Add(1)
	case cached:
		m.PointsCached.Add(1)
	case deduped:
		m.PointsDeduped.Add(1)
	default:
		m.PointsComputed.Add(1)
	}
	m.Nacks.Add(nacks)
	m.Retries.Add(retries)
}

// metricsSnapshotGauges are the live gauges rendered alongside the
// counters; the server passes them in at render time.
type gauges struct {
	queueDepth int64
	inflight   int64
	draining   bool
	cacheHits  uint64
	cacheMiss  uint64
	cacheSkips uint64
	cacheErrs  uint64
	cacheDedup uint64
	// tenantDepth is the per-tenant queue depth snapshot (nil when the
	// fair queue has no waiters).
	tenantDepth map[string]int
}

// write renders the metrics in the Prometheus text exposition format.
func (m *Metrics) write(w io.Writer, g gauges) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	gauge("lsnumad_queue_depth", "jobs waiting for an execution slot", g.queueDepth)
	gauge("lsnumad_inflight_jobs", "jobs currently executing", g.inflight)
	draining := int64(0)
	if g.draining {
		draining = 1
	}
	gauge("lsnumad_draining", "1 while the daemon is draining", draining)

	counter("lsnumad_jobs_admitted_total", "jobs admitted to an execution slot", m.Admitted.Load())
	counter("lsnumad_jobs_queued_total", "admitted jobs that waited in the queue first", m.QueuedTotal.Load())
	counter("lsnumad_jobs_rejected_total", "jobs rejected with 429 (queue full)", m.Rejected.Load())
	counter("lsnumad_jobs_rejected_draining_total", "jobs rejected with 503 (draining)", m.RejectedDraining.Load())
	counter("lsnumad_jobs_abandoned_total", "queued jobs whose client disconnected before a slot freed", m.AbandonedQueue.Load())
	counter("lsnumad_jobs_completed_total", "jobs that ran to completion", m.Completed.Load())
	counter("lsnumad_jobs_failed_total", "completed jobs with at least one failed point", m.JobFailures.Load())
	counter("lsnumad_handler_panics_total", "handler panics caught by the isolation wrapper", m.Panics.Load())

	counter("lsnumad_points_computed_total", "points freshly simulated", m.PointsComputed.Load())
	counter("lsnumad_points_cached_total", "points served from the persistent result cache", m.PointsCached.Load())
	counter("lsnumad_points_deduped_total", "points shared from a concurrent identical computation", m.PointsDeduped.Load())
	counter("lsnumad_points_failed_total", "points that failed (error, panic, timeout, cancel)", m.PointsFailed.Load())

	counter("lsnumad_cache_hits_total", "result cache hits", g.cacheHits)
	counter("lsnumad_cache_misses_total", "result cache misses", g.cacheMiss)
	counter("lsnumad_cache_skips_total", "points ineligible for caching", g.cacheSkips)
	counter("lsnumad_cache_errors_total", "failed cache operations", g.cacheErrs)
	counter("lsnumad_cache_dedups_total", "single-flight shares in the cache layer", g.cacheDedup)

	counter("lsnumad_sim_nacks_total", "directory NACKs across all simulated points", m.Nacks.Load())
	counter("lsnumad_sim_retries_total", "transaction retries across all simulated points", m.Retries.Load())

	counter("lsnumad_jobs_recovered_total", "journaled jobs replayed after a restart", m.Recovered.Load())
	counter("lsnumad_journal_corrupt_records_total", "corrupt journal records skipped at startup", m.JournalCorrupt.Load())

	// Per-tenant series: HELP/TYPE once per family, then one sample per
	// tenant in sorted order (deterministic output for tests and diffs).
	fmt.Fprintf(w, "# HELP lsnumad_tenant_queue_depth queued jobs by tenant\n# TYPE lsnumad_tenant_queue_depth gauge\n")
	for _, tenant := range sortedKeys(g.tenantDepth) {
		fmt.Fprintf(w, "lsnumad_tenant_queue_depth{tenant=%q} %d\n", tenant, g.tenantDepth[tenant])
	}
	m.tenantMu.Lock()
	rejected := make(map[string]uint64, len(m.tenantRejected))
	for k, v := range m.tenantRejected {
		rejected[k] = v
	}
	m.tenantMu.Unlock()
	fmt.Fprintf(w, "# HELP lsnumad_tenant_rejected_total jobs rejected with 429 by tenant\n# TYPE lsnumad_tenant_rejected_total counter\n")
	for _, tenant := range sortedKeys(rejected) {
		fmt.Fprintf(w, "lsnumad_tenant_rejected_total{tenant=%q} %d\n", tenant, rejected[tenant])
	}

	fmt.Fprintf(w, "# HELP lsnumad_request_duration_ms job latency by endpoint\n# TYPE lsnumad_request_duration_ms histogram\n")
	for _, e := range endpoints {
		h := m.hist[e]
		var cum uint64
		for i, bound := range histBoundsMs {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "lsnumad_request_duration_ms_bucket{endpoint=%q,le=%q} %d\n", e, strconv.FormatUint(bound, 10), cum)
		}
		cum += h.buckets[len(histBoundsMs)].Load()
		fmt.Fprintf(w, "lsnumad_request_duration_ms_bucket{endpoint=%q,le=\"+Inf\"} %d\n", e, cum)
		fmt.Fprintf(w, "lsnumad_request_duration_ms_sum{endpoint=%q} %d\n", e, h.sumMs.Load())
		fmt.Fprintf(w, "lsnumad_request_duration_ms_count{endpoint=%q} %d\n", e, h.count.Load())
	}
}
