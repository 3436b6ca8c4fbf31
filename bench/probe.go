package main

import (
	"math"
	"time"
)

// The shared host this benchmark was defined on drifts in speed by 20–50%
// over minutes, and every workload slows with it, so raw latencies of
// runs a few minutes apart differ by more than any useful bound. The
// probe measures that drift with code no change to the repository can
// touch, and the end-to-end timings are reported at the probe's reference
// speed (see README.md for the measured effect).

// probeRef is the probe's time on the idle baseline host (2 vCPUs,
// x86-64): normalized timings read in that host's milliseconds.
const probeRef = 10 * time.Millisecond

// driftExponent is how much faster than the probe's time the workloads'
// times grow when the host slows. Over four sets of ten runs of each
// workload on the baseline host, whose median probe times ran from 10.1
// to 13.0 ms, raw latency and start-up medians rose by 46–93%. Scaled
// with exponent 2 the four medians of each stayed within 2–23% of each
// other, with exponent 1 within 13–56% (see README.md). The probe runs
// on one core in registers; the workloads use both cores and memory.
const driftExponent = 2

// probeSink keeps the probe loop from being optimized away.
var probeSink uint64

// probe times a fixed integer loop that stays in registers.
func probe() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 5_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return time.Since(start)
}

// timingMetrics records a workload's end-to-end timings: the median
// latency and start-up time as measured (latency_ms, setup_raw_s), the
// probe times taken beside them, and both at the probe's reference speed,
// v × (probeRef / probe median)^driftExponent, as latency_norm_ms and
// setup_s.
func (o *outcome) timingMetrics(latencyMS float64, n int, setups, probes []float64) {
	p := median(probes)
	scale := math.Pow(ms(probeRef)/p, driftExponent)
	setup := median(setups)
	o.values["latency_ms"] = metric{Value: latencyMS, Unit: "ms", N: n}
	o.values["setup_raw_s"] = metric{Value: setup, Unit: "s", N: len(setups)}
	o.values["probe_ms"] = metric{Value: p, Unit: "ms", N: len(probes)}
	o.values["latency_norm_ms"] = metric{Value: latencyMS * scale, Unit: "ms", N: n}
	o.values["setup_s"] = metric{Value: setup * scale, Unit: "s", N: len(setups)}
}
