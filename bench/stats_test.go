package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) with the default exclusive method.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestTailHasTenBeyond checks the reporting rule: the highest percentile
// with at least ten samples beyond it.
func TestTailHasTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{10000, 99.9, 9990, true},
		{1000, 99, 990, true},
		{999, 95, 950, true}, // p99 would leave only 9 beyond
		{200, 95, 190, true},
		{199, 90, 180, true},
		{100, 90, 90, true},
		{99, 50, 50, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	} {
		pct, v, ok := tail(seq(tc.n))
		if pct != tc.pct || v != tc.value || ok != tc.ok {
			t.Errorf("n=%d: tail = p%v %v %v; want p%v %v %v", tc.n, pct, v, ok, tc.pct, tc.value, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, pct)
			}
		}
	}
	if got := tailOrMax([]float64{3, 9, 1}); got != 9 {
		t.Errorf("tailOrMax of a short list = %v, want its maximum", got)
	}
}
