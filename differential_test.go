package lsnuma

// Differential determinism tests for the run-ahead scheduler: every
// workload × protocol combination must export byte-identical Results
// under Scheduler="serial" and under the default run-ahead scheduler.
// Both run the engine's one scheduling path; serial, with plain spin
// loops, takes a scheduler step for every memory operation and is the
// reference semantics. Run-ahead services an operation in place whenever
// it is the earliest pending one and sleeps spinners off the heap; it
// claims to service operations in exactly the same order, and these
// tests hold it to that across the full workload matrix, including the
// 16- and 32-processor Figure 5 configurations, the micro kernels and
// online checking.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"lsnuma/internal/trace"
	"lsnuma/internal/workload/micro"
)

// exportJSON renders a Result to its canonical JSON form for comparison.
func exportJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// schedulerName maps the tests' serial flag to a Config.Scheduler value
// ("" is the default run-ahead scheduler).
func schedulerName(serial bool) string {
	if serial {
		return "serial"
	}
	return ""
}

// runBoth runs the same point under both schedulers and fails unless the
// exported Results match byte for byte.
func runBoth(t *testing.T, cfg Config, run func(Config) (*Result, error)) {
	t.Helper()
	cfg.Scheduler = "serial"
	serial, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler = ""
	ahead, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sj, aj := exportJSON(t, serial), exportJSON(t, ahead)
	if !bytes.Equal(sj, aj) {
		t.Errorf("schedulers diverge:\nserial:    %s\nrun-ahead: %s", sj, aj)
	}
}

// TestDifferentialWorkloads covers the four paper workloads under all
// three protocols at the default node counts.
func TestDifferentialWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		for _, p := range Protocols() {
			w, p := w, p
			t.Run(fmt.Sprintf("%s/%s", w, p), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				if w == "oltp" {
					cfg = OLTPConfig()
				}
				cfg.Protocol = p
				runBoth(t, cfg, func(c Config) (*Result, error) {
					return Run(c, w, ScaleTest)
				})
			})
		}
	}
}

// TestDifferentialScaling covers the Figure 5 processor counts: Cholesky
// at 16 and 32 CPUs, where the scheduler heap actually gets deep.
func TestDifferentialScaling(t *testing.T) {
	for _, nodes := range []int{16, 32} {
		for _, p := range Protocols() {
			nodes, p := nodes, p
			t.Run(fmt.Sprintf("cholesky-%dcpu/%s", nodes, p), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.Nodes = nodes
				cfg.Protocol = p
				runBoth(t, cfg, func(c Config) (*Result, error) {
					return Run(c, "cholesky", ScaleTest)
				})
			})
		}
	}
}

// TestDifferentialMicros covers the micro kernels (migratory,
// private-evict, read-shared, producer-consumer) under all protocols.
func TestDifferentialMicros(t *testing.T) {
	for _, kind := range micro.Kinds() {
		for _, p := range Protocols() {
			kind, p := kind, p
			t.Run(fmt.Sprintf("%s/%s", kind, p), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.Protocol = p
				runBoth(t, cfg, func(c Config) (*Result, error) {
					return runMachine(context.Background(), c, micro.New(kind, ScaleTest, c.Nodes), "test", nil)
				})
			})
		}
	}
}

// TestCheckedMatrix certifies the whole workload × protocol matrix
// invariant-clean under online coherence checking, and holds the checker
// to its no-perturbation contract: the exported Results with
// Check=touched (and, outside -short, Check=full) must be byte-identical
// to the unchecked run, under both schedulers.
func TestCheckedMatrix(t *testing.T) {
	levels := []CheckLevel{CheckTouched}
	if !testing.Short() {
		levels = append(levels, CheckFull)
	}
	for _, w := range Workloads() {
		for _, p := range Protocols() {
			w, p := w, p
			t.Run(fmt.Sprintf("%s/%s", w, p), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				if w == "oltp" {
					cfg = OLTPConfig()
				}
				cfg.Protocol = p
				ref, err := Run(cfg, w, ScaleTest)
				if err != nil {
					t.Fatal(err)
				}
				rj := exportJSON(t, ref)
				for _, serial := range []bool{false, true} {
					for _, level := range levels {
						c := cfg
						c.Scheduler = schedulerName(serial)
						c.Check = level
						res, err := Run(c, w, ScaleTest)
						if err != nil {
							t.Fatalf("serial=%v check=%s: %v", serial, level, err)
						}
						if cj := exportJSON(t, res); !bytes.Equal(rj, cj) {
							t.Errorf("serial=%v check=%s diverges from unchecked:\nunchecked: %s\nchecked:   %s",
								serial, level, rj, cj)
						}
					}
				}
			})
		}
	}
}

// TestDifferentialAblations covers the configuration corners that stress
// different engine paths: relaxed writes, software-exclusive reads, false
// sharing tracking, and the §5.5 protocol variants.
func TestDifferentialAblations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"relaxed-writes", func(c *Config) { c.Protocol = LS; c.RelaxedWrites = true }},
		{"software-exclusive", func(c *Config) { c.Protocol = EX }},
		{"false-sharing", func(c *Config) { c.Protocol = Baseline; c.TrackFalseSharing = true }},
		{"default-tagged", func(c *Config) { c.Protocol = LS; c.Variant.DefaultTagged = true }},
		{"hysteresis", func(c *Config) {
			c.Protocol = LS
			c.Variant.TagHysteresis = 2
			c.Variant.DetagHysteresis = 2
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			runBoth(t, cfg, func(c Config) (*Result, error) {
				return Run(c, "mp3d", ScaleTest)
			})
		})
	}
}

// TestDifferentialCapture: trace capture runs under either scheduler —
// under run-ahead the recorder also sees the operations serviced in
// place — and records byte-identical traces for every workload.
func TestDifferentialCapture(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			var traces [2][]byte
			for i, sched := range []string{"serial", "runahead"} {
				cfg := WorkloadConfig(w)
				cfg.Protocol = LS
				cfg.Scheduler = sched
				m, err := NewEngineMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				wl, err := NewWorkload(w, ScaleTest, cfg.Nodes)
				if err != nil {
					t.Fatal(err)
				}
				progs, err := wl.Programs(m)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				tw, err := trace.NewWriter(&buf, cfg.Nodes)
				if err != nil {
					t.Fatal(err)
				}
				errFn := trace.Capture(m, tw)
				if err := m.Run(progs); err != nil {
					t.Fatal(err)
				}
				if err := errFn(); err != nil {
					t.Fatal(err)
				}
				if err := tw.Flush(); err != nil {
					t.Fatal(err)
				}
				if sched == "runahead" {
					if m.RunAheadOps() == 0 {
						t.Error("run-ahead serviced no operation in place during capture")
					}
					t.Logf("%d operations captured, %d serviced in place", tw.Len(), m.RunAheadOps())
				}
				traces[i] = buf.Bytes()
			}
			if !bytes.Equal(traces[0], traces[1]) {
				t.Errorf("captured traces differ: serial %d bytes, run-ahead %d bytes", len(traces[0]), len(traces[1]))
			}
		})
	}
}
