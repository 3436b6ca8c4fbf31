package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lat := metricSpec{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := metricSpec{Name: "client.ops_per_s", Unit: "1/s", Better: "higher"}
	count := metricSpec{Name: "network.msgs", Unit: "count", Better: "lower"}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name string
		m    metricSpec
		e2e  bool
		base []float64
		cur  []float64
		want string
	}{
		{"same runs", lat, true, base, base, unchanged},
		{"within bound", lat, true, base, scale(base, 1.05), unchanged},
		{"beyond bound", lat, true, base, scale(base, 1.20), worse},
		{"clearly faster", lat, true, base, scale(base, 0.80), better},
		{"noisy base", lat, true, []float64{50, 100, 150, 80, 120}, scale(base, 1.30), unresolved},
		{"noisy base, every new run faster", lat, true, []float64{50, 100, 150, 80, 120}, []float64{40, 41, 42}, better},
		{"rate up is better", rate, false, base, scale(base, 1.2), better},
		{"rate down is worse", rate, false, base, scale(base, 0.8), worse},
		{"exact count moved", count, false, []float64{5, 5, 5}, []float64{6, 6, 6}, worse},
		{"exact count same", count, false, []float64{5, 5, 5}, []float64{5, 5, 5}, unchanged},
		{"count appears from zero", count, false, []float64{0, 0}, []float64{3, 3}, worse},
	} {
		if got, _ := verdict(tc.m, tc.e2e, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func testSpec() *spec {
	return &spec{
		Workloads: []workloadSpec{{Name: "bigmachine"}},
		EndToEnd:  []metricSpec{{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
		PerLayer:  []metricSpec{{Name: "network.msgs", Unit: "count", Better: "lower"}},
	}
}

func recs(cpus int, trace bool, name string, vals ...float64) []record {
	var out []record
	for _, v := range vals {
		out = append(out, record{Workload: "bigmachine", Trace: trace, Host: host{NumCPU: cpus},
			Metrics: map[string]metric{name: {Value: v}}})
	}
	return out
}

func TestCompareExitCode(t *testing.T) {
	s := testSpec()
	base := recs(2, false, "latency_ms", 100, 101, 99, 100, 102)
	var out bytes.Buffer
	if code, err := compare(&out, s, base, recs(2, false, "latency_ms", 100, 99, 101)); err != nil || code != 0 {
		t.Fatalf("same numbers: code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "unchanged") {
		t.Errorf("row missing verdict:\n%s", out.String())
	}
	if code, err := compare(&out, s, base, recs(2, false, "latency_ms", 130, 131, 129)); err != nil || code != 1 {
		t.Fatalf("slower end to end: code=%d err=%v, want 1", code, err)
	}
	// A per-layer change is attribution, not a regression.
	layer := append(base, recs(2, true, "network.msgs", 5, 5)...)
	if code, err := compare(&out, s, layer, recs(2, true, "network.msgs", 9, 9)); err != nil || code != 0 {
		t.Fatalf("per-layer change: code=%d err=%v, want 0", code, err)
	}
}

func TestCompareRefusesOtherCoreCount(t *testing.T) {
	var out bytes.Buffer
	_, err := compare(&out, testSpec(), recs(2, false, "latency_ms", 1, 2), recs(8, false, "latency_ms", 1, 2))
	if err == nil || !strings.Contains(err.Error(), "num_cpu") {
		t.Fatalf("err = %v, want a num_cpu refusal", err)
	}
}
