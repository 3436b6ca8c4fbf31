package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of a compare row.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict judges one metric from the base runs' values and the new runs'
// values. worseBy is the new median's change in the bad direction as a
// share of the base median; spread is the base runs' quartile distance as
// a share of their median.
//
// End-to-end metrics have a bound. When the base runs spread wider than
// it the comparison cannot tell a regression from noise: unresolved,
// unless every new run beats every base run. Otherwise a worsening beyond
// the bound is worse. Per-layer metrics have no bound; a change beyond
// the base spread that at least nine tenths of (base, new) run pairs
// agree on is better or worse, anything else unchanged.
func verdict(m metricSpec, e2e bool, base, cur []float64) (v string, worseBy float64) {
	mb, mn := median(base), median(cur)
	q1, q3 := quartiles(base)
	switch {
	case mb != 0:
		worseBy = (mn - mb) / math.Abs(mb)
	case mn != 0:
		worseBy = math.Copysign(math.Inf(1), mn)
	}
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	spread := 0.0
	if mb != 0 {
		spread = (q3 - q1) / math.Abs(mb)
	}
	wins, losses := pairShares(m, base, cur)
	switch {
	case e2e && wins == 1 && worseBy < 0:
		return better, worseBy
	case e2e && spread > m.Bound:
		return unresolved, worseBy
	case e2e && worseBy > m.Bound:
		return worse, worseBy
	case !e2e && worseBy > spread && losses >= 0.9:
		return worse, worseBy
	case -worseBy > spread && wins >= 0.9:
		return better, worseBy
	}
	return unchanged, worseBy
}

// pairShares returns the shares of (base, new) run pairs in which the new
// run is strictly better and strictly worse.
func pairShares(m metricSpec, base, cur []float64) (wins, losses float64) {
	n := 0
	for _, b := range base {
		for _, c := range cur {
			n++
			d := c - b
			if m.Better == "higher" {
				d = -d
			}
			if d < 0 {
				wins++
			} else if d > 0 {
				losses++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return wins / float64(n), losses / float64(n)
}

// compare prints one row per (workload, metric) found in both record sets
// and returns exit code 1 if any end-to-end metric got worse. Per-layer
// rows attribute a change; they never fail the comparison. Records from
// hosts with different core counts are refused: their timings do not
// compare.
func compare(w io.Writer, s *spec, base, cur []record) (int, error) {
	if len(base) == 0 || len(cur) == 0 {
		return 0, fmt.Errorf("nothing to compare: %d base and %d new records", len(base), len(cur))
	}
	for _, set := range [][]record{base, cur} {
		for _, r := range set {
			if r.Host.NumCPU != base[0].Host.NumCPU {
				return 0, fmt.Errorf("refusing to compare: num_cpu %d and %d differ", base[0].Host.NumCPU, r.Host.NumCPU)
			}
		}
	}
	values := func(recs []record, workload string, trace bool, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
				out = append(out, v.Value)
			}
		}
		return out
	}
	code := 0
	fmt.Fprintf(w, "%-10s %-28s %-38s %-38s %8s  %s\n", "workload", "metric", "base median [q1 q3]", "new median [q1 q3]", "delta", "verdict")
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			for _, m := range s.metrics(trace) {
				b, c := values(base, wl.Name, trace, m.Name), values(cur, wl.Name, trace, m.Name)
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				v, worseBy := verdict(m, !trace, b, c)
				if v == worse && !trace {
					code = 1
				}
				delta := 100 * worseBy
				if m.Better == "higher" {
					delta = -delta
				}
				fmt.Fprintf(w, "%-10s %-28s %-38s %-38s %+7.1f%%  %s\n", wl.Name, m.Name, summary(b), summary(c), delta, v)
			}
		}
	}
	return code, nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", median(xs), q1, q3, len(xs))
}
