package main

import (
	"math"
	"slices"
	"time"
)

// median returns the median of xs (the mean of the two middle values for
// an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match what a reader recomputes from the records.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

// tailPerMille are the percentiles a tail latency is reported at, in
// tenths of a percent, from the highest down.
var tailPerMille = []int{999, 990, 950, 900, 500}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and its nearest-rank value; ok is false when fewer than 20
// samples leave even the median without ten beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for _, pm := range tailPerMille {
		rank := (pm*n + 999) / 1000 // ceil(pm/1000 * n)
		if rank >= 1 && n-rank >= 10 {
			return float64(pm) / 10, s[rank-1], true
		}
	}
	return 0, 0, false
}

// ms and secs convert durations to the float units metrics are kept in.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// msList maps durations to milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
