package lsnuma

// Resilient-transaction-layer tests: the headline TestResilientMatrix
// invariant (lossy runs with retries terminate with Results identical —
// minus traffic and resilience accounting — to the lossless run, under
// both schedulers), the forward-progress watchdog's fail-fast guarantee
// when retries are off, finite-MSHR determinism, and the per-point
// deadline of RunOptions.PointTimeout.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lsnuma/internal/engine"
)

// resilientCfg is the matrix's resilient base: finite home transaction
// buffers plus a seeded bounded-backoff retry policy.
func resilientCfg(workload string) Config {
	cfg := DefaultConfig()
	if workload == "oltp" {
		cfg = OLTPConfig()
	}
	cfg.DirMSHRs = 4
	cfg.Retry = "max:64,base:100,cap:4000,jitter:11"
	return cfg
}

// stripTransparent zeroes the fields a lossy run is allowed to differ in:
// the traffic counters (retransmissions and NACKs ride on spare
// interconnect capacity but still count as messages) and the resilience
// accounting itself. Everything else — timing, misses, invalidations,
// sequence analysis, per-CPU decomposition — must match the lossless run
// exactly.
func stripTransparent(r *Result) *Result {
	c := *r
	c.Msgs, c.Bytes = 0, 0
	c.ClassMsgs, c.ClassBytes = [3]uint64{}, [3]uint64{}
	c.Resil = ResilRow{}
	return &c
}

// TestResilientMatrix is the PR's headline invariant: every workload ×
// protocol × scheduler cell, run under combined message loss, duplication
// and reordering with retries enabled, must terminate with a Result
// byte-identical (minus traffic and resilience accounting) to the same
// cell's lossless run. The message-fault recovery is architecturally
// transparent — retransmissions never shift the simulated timeline.
func TestResilientMatrix(t *testing.T) {
	const faults = "drop-msg@0.01,dup-msg@0.005,reorder-msg@0.005:3"
	for _, w := range Workloads() {
		for _, p := range Protocols() {
			w, p := w, p
			t.Run(fmt.Sprintf("%s/%s", w, p), func(t *testing.T) {
				t.Parallel()
				cfg := resilientCfg(w)
				cfg.Protocol = p
				lossless, err := Run(cfg, w, ScaleTest)
				if err != nil {
					t.Fatalf("lossless: %v", err)
				}
				want := exportJSON(t, stripTransparent(lossless))
				for _, serial := range []bool{false, true} {
					c := cfg
					c.Scheduler = schedulerName(serial)
					c.Faults = faults
					lossy, err := Run(c, w, ScaleTest)
					if err != nil {
						t.Fatalf("serial=%v lossy: %v", serial, err)
					}
					rs := &lossy.Resil
					if rs.DroppedMsgs == 0 || rs.DupMsgs == 0 || rs.ReorderedMsgs == 0 {
						t.Errorf("serial=%v: fault injection idle: dropped=%d dup=%d reordered=%d",
							serial, rs.DroppedMsgs, rs.DupMsgs, rs.ReorderedMsgs)
					}
					if rs.TimeoutResends == 0 {
						t.Errorf("serial=%v: losses recovered without a single resend", serial)
					}
					// The MSHR path is architectural: saturation depends only
					// on the configuration, so the NACK count must match the
					// lossless run exactly.
					if rs.Nacks != lossless.Resil.Nacks {
						t.Errorf("serial=%v: NACKs diverge: lossy=%d lossless=%d",
							serial, rs.Nacks, lossless.Resil.Nacks)
					}
					if got := exportJSON(t, stripTransparent(lossy)); !bytes.Equal(want, got) {
						t.Errorf("serial=%v: lossy run diverges from lossless:\nlossless: %s\nlossy:    %s",
							serial, want, got)
					}
					if lossy.Msgs <= lossless.Msgs {
						t.Errorf("serial=%v: recovery traffic unaccounted: lossy msgs=%d <= lossless %d",
							serial, lossy.Msgs, lossless.Msgs)
					}
				}
			})
		}
	}
}

// TestWatchdogMatrix: with retries disabled, every lossy cell must die
// with a structured StarvationError — never a hang and never a silently
// wrong result. The watchdog fails fast: the first unrecoverable loss is
// reported immediately (at the time its progress window would expire).
func TestWatchdogMatrix(t *testing.T) {
	for _, w := range Workloads() {
		for _, class := range []string{"drop-msg", "reorder-msg"} {
			for _, p := range Protocols() {
				w, p, class := w, p, class
				t.Run(fmt.Sprintf("%s/%s/%s", w, p, class), func(t *testing.T) {
					t.Parallel()
					cfg := resilientCfg(w)
					cfg.Protocol = p
					cfg.Retry = "" // retries off: the first loss is fatal
					cfg.Faults = class + "@0.01:3"
					start := time.Now()
					_, err := Run(cfg, w, ScaleTest)
					if err == nil {
						t.Fatal("lossy run without retries completed cleanly")
					}
					var starve *engine.StarvationError
					if !errors.As(err, &starve) {
						t.Fatalf("failure is not a StarvationError: %v", err)
					}
					if starve.Budget != 0 {
						t.Errorf("budget = %d, want 0 (retries disabled)", starve.Budget)
					}
					if starve.Stalled != starve.Window || starve.Window == 0 {
						t.Errorf("fail-fast report should charge the whole window: stalled=%d window=%d",
							starve.Stalled, starve.Window)
					}
					if !strings.Contains(starve.Cause, "retries disabled") {
						t.Errorf("cause does not name the disabled retries: %q", starve.Cause)
					}
					if len(starve.Requesters) == 0 {
						t.Error("starvation report carries no requester set")
					}
					if d := starve.Diagnosis(); !strings.Contains(d, "requesters of the stuck block") {
						t.Errorf("diagnosis misses the requester set:\n%s", d)
					}
					if elapsed := time.Since(start); elapsed > 30*time.Second {
						t.Errorf("watchdog took %v to fire — not fail-fast", elapsed)
					}
				})
			}
		}
	}
}

// TestDupLossless: duplicated messages need no recovery — the run must
// terminate cleanly with only the wasted traffic visible, even with
// retries disabled.
func TestDupLossless(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	cfg.Faults = "dup-msg@0.02:5"
	res, err := Run(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resil.DupMsgs == 0 {
		t.Error("duplication injector never fired")
	}
	if res.Resil.Retries != 0 || res.Resil.TimeoutResends != 0 {
		t.Errorf("duplication triggered recovery: %+v", res.Resil)
	}
}

// TestUnsaturatedMSHRIdentity: home transaction buffers deep enough to
// never saturate must leave the simulation byte-identical to the classic
// unlimited-buffer model — the resilient layer is pay-for-what-you-use.
func TestUnsaturatedMSHRIdentity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	classic, err := Run(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DirMSHRs = 1024
	cfg.Retry = "max:16,base:100,cap:4000,jitter:11"
	deep, err := Run(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Resil.Nacks != 0 {
		t.Fatalf("1024 buffers saturated on the test scale: %d NACKs", deep.Resil.Nacks)
	}
	if cj, dj := exportJSON(t, classic), exportJSON(t, deep); !bytes.Equal(cj, dj) {
		t.Errorf("unsaturated MSHRs perturb the run:\nclassic: %s\nMSHRs:   %s", cj, dj)
	}
}

// TestMSHRContention: a single transaction buffer per home under a
// sharing-heavy workload must NACK and retry — and the whole architectural
// recovery path must stay deterministic across both schedulers.
func TestMSHRContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = Baseline
	cfg.DirMSHRs = 1
	cfg.Retry = "max:100,base:50,cap:2000,jitter:7"
	runBoth(t, cfg, func(c Config) (*Result, error) {
		return Run(c, "mp3d", ScaleTest)
	})
	res, err := Run(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	rs := &res.Resil
	if rs.Nacks == 0 || rs.Retries == 0 {
		t.Fatalf("single-buffer homes never saturated: %+v", rs)
	}
	if rs.BackoffCycles == 0 || rs.MaxBackoff == 0 {
		t.Errorf("retries without backoff accounting: %+v", rs)
	}
	if rs.MeanRetries <= 0 {
		t.Errorf("mean retries not derived: %+v", rs)
	}
	var hist uint64
	for _, n := range rs.RetryHist {
		hist += n
	}
	if hist == 0 {
		t.Errorf("no recovered transaction entered the retry histogram: %+v", rs)
	}
	// Saturation legitimately shifts the timeline (it is architectural),
	// so the classic run is no ground truth here — instead hold the
	// contended machine to the coherence invariants under online checking.
	cfg.Check = CheckTouched
	if _, err := Run(cfg, "mp3d", ScaleTest); err != nil {
		t.Errorf("contended run violates coherence: %v", err)
	}
}

// TestPointTimeout: RunOptions.PointTimeout bounds each point's wall
// clock; an expired point surfaces context.DeadlineExceeded as an
// annotated hole and is not retried (the failure is already structured).
func TestPointTimeout(t *testing.T) {
	results, err := RunAll(context.Background(),
		[]Point{goodPoint("deadline")},
		RunOptions{PointTimeout: time.Nanosecond})
	if err == nil {
		t.Fatal("1ns point deadline did not fire")
	}
	pr := results[0]
	if pr.Result != nil {
		t.Fatal("expired point still produced a result")
	}
	if !errors.Is(pr.Err, context.DeadlineExceeded) {
		t.Fatalf("error is not the context deadline: %v", pr.Err)
	}
	var cancelled *engine.CancelledError
	if !errors.As(pr.Err, &cancelled) {
		t.Errorf("expiry did not abort through the engine's cancel hook: %v", pr.Err)
	}
	if b := pr.Repro; b == nil {
		t.Error("expired point carries no repro bundle")
	} else if b.Retry != "" {
		t.Errorf("deadline failure was retried: %q", b.Retry)
	}
}

// TestPointTimeoutGenerous: a deadline the point comfortably makes must
// not perturb the run at all.
func TestPointTimeoutGenerous(t *testing.T) {
	ref, err := Run(goodPoint("x").Config, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(context.Background(),
		[]Point{goodPoint("relaxed")},
		RunOptions{PointTimeout: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Result == nil {
		t.Fatal("point with a generous deadline failed")
	}
	if rj, gj := exportJSON(t, ref), exportJSON(t, results[0].Result); !bytes.Equal(rj, gj) {
		t.Errorf("deadline polling perturbed the run:\nref:      %s\ndeadline: %s", rj, gj)
	}
}

// TestStarvationRepro: a starvation death inside RunAll must land the
// watchdog's full diagnosis in the repro bundle without a checks-on
// retry (the failure is already structured).
func TestStarvationRepro(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	cfg.Faults = "drop-msg@0.01:3"
	pt := Point{Label: "starving", Config: cfg, Workload: "mp3d", Scale: ScaleTest}
	results, err := RunAll(context.Background(), []Point{pt}, RunOptions{})
	if err == nil {
		t.Fatal("lossy run without retries survived RunAll")
	}
	b := results[0].Repro
	if b == nil {
		t.Fatal("no repro bundle")
	}
	if !strings.Contains(b.Diagnosis, "starvation") ||
		!strings.Contains(b.Diagnosis, "requesters of the stuck block") {
		t.Errorf("bundle diagnosis is not the watchdog report: %q", b.Diagnosis)
	}
	if b.Retry != "" {
		t.Errorf("structured starvation was retried with checks on: %q", b.Retry)
	}
}

// TestBadResilienceSpecs: malformed retry and fault specs fail at config
// lowering with actionable errors.
func TestBadResilienceSpecs(t *testing.T) {
	cases := []struct{ retry, faults, want string }{
		{"max:banana", "", "retry"},
		{"max:4,base:0", "", "retry"},
		{"frequency:9", "", "retry"},
		{"", "drop-msg@2.0", "rate"},
		{"", "drop-msg@0.1,drop-msg@0.2", "duplicate"},
		{"", "drop-msg:1,dup-msg:2", "seed"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Retry = tc.retry
		cfg.Faults = tc.faults
		_, err := Run(cfg, "mp3d", ScaleTest)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("retry=%q faults=%q: want error containing %q, got %v",
				tc.retry, tc.faults, tc.want, err)
		}
	}
	cfg := DefaultConfig()
	cfg.DirMSHRs = -1
	if _, err := Run(cfg, "mp3d", ScaleTest); err == nil {
		t.Error("negative DirMSHRs accepted")
	}
}
