package lsnuma

// Machine-readable benchmark results. `go test -run WriteBenchJSON
// -benchjson BENCH_5.json .` benchmarks every figure workload under both
// schedulers (the default run-ahead handoff scheduler and the serial
// per-access handshake scheduler selected by Config.Scheduler), both
// directory layouts (the dense paged-array directory and the legacy map
// directory kept behind Config.MapDirectory), and, on the run-ahead
// scheduler, at every online-checking level (Config.Check off / touched /
// full), writing one JSON record per point: wall-clock ns/op, allocations
// per run, simulated cycles, and simulator throughput in simulated cycles
// and simulated memory operations per wall-clock second. A second section
// benchmarks the persistent result cache: a cold block-size sweep against
// an empty cache directory versus a warm re-run answered entirely from it.
// The file checked in at the repo root records the run-ahead speedup, the
// flat-directory speedup, the checker overhead and the warm-sweep speedup
// on the machine that generated it; regenerate it when touching the engine
// hot path, the directory, the checker or the result cache.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"
)

var benchJSONFlag = flag.String("benchjson", "", "write machine-readable scheduler benchmarks to this file")

// BenchPoint is one benchmarked configuration in the -benchjson output.
type BenchPoint struct {
	Workload  string `json:"workload"`
	Protocol  string `json:"protocol"`
	Scheduler string `json:"scheduler"` // "run-ahead" or "serial"
	Check     string `json:"check"`     // online checking level: "off", "touched", "full"
	Directory string `json:"directory"` // directory storage: "flat" or "map"

	NsPerOp         float64 `json:"ns_per_op"`       // wall-clock per full simulation
	AllocsPerOp     int64   `json:"allocs_per_op"`   // heap allocations per full simulation
	SimCycles       uint64  `json:"sim_cycles"`      // simulated execution time
	SimOps          uint64  `json:"sim_ops"`         // simulated loads + stores
	SimOpsPerSec    float64 `json:"sim_ops_per_sec"` // simulator throughput
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// SweepBench is one warm-versus-cold result-cache measurement in the
// -benchjson output: the same sweep run against an empty cache directory
// (every point simulates and is stored) and again against the warm one
// (every point is answered from disk).
type SweepBench struct {
	Workload    string  `json:"workload"`
	Sweep       string  `json:"sweep"`
	Points      int     `json:"points"`        // cells in the sweep (grid points x protocols)
	ColdNs      float64 `json:"cold_ns"`       // wall-clock of the populating sweep
	WarmNs      float64 `json:"warm_ns"`       // wall-clock of the fully cached re-run
	WarmHitRate float64 `json:"warm_hit_rate"` // fraction of warm points answered from cache
	Speedup     float64 `json:"speedup"`       // cold_ns / warm_ns
}

// BenchReport is the top-level -benchjson document.
type BenchReport struct {
	GOOS    string       `json:"goos"`
	GOARCH  string       `json:"goarch"`
	NumCPU  int          `json:"num_cpu"`
	Scale   string       `json:"scale"`
	Results []BenchPoint `json:"results"`
	// Sweeps records the persistent result cache's warm-vs-cold benefit.
	Sweeps []SweepBench `json:"sweeps"`
}

func TestWriteBenchJSON(t *testing.T) {
	if *benchJSONFlag == "" {
		t.Skip("set -benchjson <file> to generate machine-readable benchmarks")
	}
	workloads := []struct {
		name string
		cfg  Config
	}{
		{"mp3d", DefaultConfig()},
		{"cholesky", DefaultConfig()},
		{"lu", DefaultConfig()},
		{"oltp", OLTPConfig()},
	}
	// The serial scheduler and the map directory run only unchecked (their
	// cost is the scheduler handshake / the hashing, not the checker); the
	// checker overhead is measured on the production run-ahead + flat path.
	variants := []struct {
		sched string
		check CheckLevel
		dir   string
	}{
		{"run-ahead", CheckOff, "flat"},
		{"run-ahead", CheckOff, "map"},
		{"serial", CheckOff, "flat"},
		{"run-ahead", CheckTouched, "flat"},
		{"run-ahead", CheckFull, "flat"},
	}
	report := BenchReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Scale: "test",
	}
	for _, w := range workloads {
		for _, v := range variants {
			cfg := w.cfg
			cfg.Protocol = LS
			cfg.Scheduler = schedulerName(v.sched == "serial")
			cfg.Check = v.check
			cfg.MapDirectory = v.dir == "map"
			var last *Result
			br := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := Run(cfg, w.name, ScaleTest)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
			})
			secPerOp := float64(br.NsPerOp()) / 1e9
			simOps := last.Loads + last.Stores
			report.Results = append(report.Results, BenchPoint{
				Workload:  w.name,
				Protocol:  string(LS),
				Scheduler: v.sched,
				Check:     string(v.check),
				Directory: v.dir,

				NsPerOp:         float64(br.NsPerOp()),
				AllocsPerOp:     br.AllocsPerOp(),
				SimCycles:       last.ExecTime,
				SimOps:          simOps,
				SimOpsPerSec:    float64(simOps) / secPerOp,
				SimCyclesPerSec: float64(last.ExecTime) / secPerOp,
			})
			t.Logf("%s/%s/check=%s/dir=%s: %.2fms/op, %d allocs, %d sim-cycles, %.2fM sim-ops/s",
				w.name, v.sched, v.check, v.dir, float64(br.NsPerOp())/1e6, br.AllocsPerOp(),
				last.ExecTime, float64(simOps)/secPerOp/1e6)
		}
	}
	// Every variant of a workload — either scheduler, any checking level —
	// must agree on every simulated quantity; the report would otherwise be
	// comparing different experiments.
	first := map[string]BenchPoint{}
	for _, p := range report.Results {
		ref, ok := first[p.Workload]
		if !ok {
			first[p.Workload] = p
			continue
		}
		if p.SimCycles != ref.SimCycles || p.SimOps != ref.SimOps {
			t.Errorf("%s: %s/check=%s disagrees with %s/check=%s: %d cycles/%d ops vs %d cycles/%d ops",
				p.Workload, p.Scheduler, p.Check, ref.Scheduler, ref.Check,
				p.SimCycles, p.SimOps, ref.SimCycles, ref.SimOps)
		}
	}
	// Result-cache benefit: one block-size sweep cold (empty cache
	// directory, every cell simulates) and once more warm (every cell
	// answered from disk). Wall-clock is a single measurement per leg —
	// the two differ by orders of magnitude, so run-to-run noise is
	// irrelevant next to the effect.
	param, err := ParseSweepParam("block")
	if err != nil {
		t.Fatal(err)
	}
	timedSweep := func(dir string) (time.Duration, int, CacheStats) {
		rc, err := OpenResultCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		results, err := Sweep(context.Background(), DefaultConfig(), param, "mp3d", ScaleTest,
			RunOptions{Cache: rc})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), len(results) * len(Protocols()), rc.Stats()
	}
	cacheDir := t.TempDir()
	coldT, points, coldStats := timedSweep(cacheDir)
	warmT, _, warmStats := timedSweep(cacheDir)
	if coldStats.Hits != 0 || warmStats.Misses != 0 {
		t.Errorf("sweep cache stats off: cold=%+v warm=%+v", coldStats, warmStats)
	}
	report.Sweeps = append(report.Sweeps, SweepBench{
		Workload:    "mp3d",
		Sweep:       "block",
		Points:      points,
		ColdNs:      float64(coldT.Nanoseconds()),
		WarmNs:      float64(warmT.Nanoseconds()),
		WarmHitRate: float64(warmStats.Hits) / float64(points),
		Speedup:     float64(coldT.Nanoseconds()) / float64(warmT.Nanoseconds()),
	})
	t.Logf("mp3d/block sweep: cold=%.1fms warm=%.1fms (%d points, %.0f%% warm hits, %.0fx)",
		float64(coldT.Nanoseconds())/1e6, float64(warmT.Nanoseconds())/1e6,
		points, 100*float64(warmStats.Hits)/float64(points),
		float64(coldT.Nanoseconds())/float64(warmT.Nanoseconds()))

	f, err := os.Create(*benchJSONFlag)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatal(err)
	}
}
