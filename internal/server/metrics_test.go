package server

import (
	"testing"
	"time"
)

// TestRetryAfterColdStart: before any job completes the EWMA is empty;
// the estimate must still scale with queue depth, at the one-second
// seed per job, instead of collapsing to the floor.
func TestRetryAfterColdStart(t *testing.T) {
	m := newMetrics()
	// queued ≫ slots on a cold daemon: 16 queued jobs over 2 slots at
	// the 1 s seed is (16+1)*1/2 = 8.5 s of estimated backlog, rounded
	// up.
	if got := m.retryAfterSeconds(16, 2); got != 9 {
		t.Fatalf("cold retryAfterSeconds(16, 2) = %d, want 9 (seed-scaled)", got)
	}
	if got := m.retryAfterSeconds(0, 2); got != 1 {
		t.Fatalf("cold retryAfterSeconds(0, 2) = %d, want 1", got)
	}
	// Once a job completes, the observed EWMA takes over from the seed.
	m.observe("sweep", 8*time.Second)
	if got := m.retryAfterSeconds(16, 2); got != 68 {
		t.Fatalf("warm retryAfterSeconds(16, 2) = %d, want 68 (EWMA-scaled)", got)
	}
}

// TestTenantRejectCardinality: per-tenant 429 accounting collapses
// tenants beyond the fair queue's bound into "other" instead of growing
// the metric space without limit.
func TestTenantRejectCardinality(t *testing.T) {
	m := newMetrics()
	for i := 0; i < maxTenants+10; i++ {
		m.rejectTenant(string(rune('A'+i%26)) + string(rune('a'+i/26)))
	}
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	if len(m.tenantRejected) > maxTenants+1 {
		t.Fatalf("tenantRejected grew to %d series, want at most %d", len(m.tenantRejected), maxTenants+1)
	}
	if m.tenantRejected["other"] != 10 {
		t.Fatalf(`tenantRejected["other"] = %d, want 10 overflow rejections`, m.tenantRejected["other"])
	}
}
