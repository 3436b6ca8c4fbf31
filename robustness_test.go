package lsnuma

// Public-API robustness tests: structured coherence violations through
// Config.Check, fault injection through Config.Faults, the
// retry-once-with-checks-on escalation with its repro bundle, and
// partial sweep results with annotated holes.

import (
	"context"
	"strings"
	"testing"
)

// faultPoint returns a point whose simulation reliably fails: a dropped
// invalidation leaves a stale sharer that later trips an engine
// assertion (checks off) or the online checker (checks on).
func faultPoint(label string) Point {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	cfg.Faults = "drop-inval@200"
	return Point{Label: label, Config: cfg, Workload: "mp3d", Scale: ScaleTest}
}

func goodPoint(label string) Point {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	return Point{Label: label, Config: cfg, Workload: "mp3d", Scale: ScaleTest}
}

// TestCheckedRunCatchesInjectedFault: with online checking on, an
// injected protocol fault surfaces as a structured coherence violation
// rather than a downstream engine panic.
func TestCheckedRunCatchesInjectedFault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	cfg.Check = CheckFull
	cfg.CheckInterval = 1
	cfg.Faults = "forge-owner@200"
	_, err := Run(cfg, "mp3d", ScaleTest)
	if err == nil {
		t.Fatal("run with a forged owner completed cleanly")
	}
	if !strings.Contains(err.Error(), "coherence:") {
		t.Errorf("error is not a structured violation: %v", err)
	}
}

// TestRetryEscalation: a point that dies with a cryptic engine panic is
// retried once with checking on; the repro bundle must carry the panic
// stack, the checker's diagnosis, and the tail of the operation ring.
func TestRetryEscalation(t *testing.T) {
	results, err := RunAll(context.Background(),
		[]Point{goodPoint("good"), faultPoint("bad")}, RunOptions{})
	if err == nil {
		t.Fatal("want aggregated error from the failing point")
	}
	if results[0].Result == nil || results[0].Err != nil {
		t.Fatalf("healthy point did not survive the sweep: %+v", results[0].Err)
	}
	bad := results[1]
	if bad.Err == nil || bad.Result != nil {
		t.Fatalf("failing point: Result=%v Err=%v", bad.Result, bad.Err)
	}
	b := bad.Repro
	if b == nil {
		t.Fatal("failing point carries no repro bundle")
	}
	if b.Workload != "mp3d" || b.Config.Faults != "drop-inval@200" {
		t.Errorf("bundle does not reproduce the point: %+v", b)
	}
	if !strings.Contains(b.Stack, "goroutine") {
		t.Errorf("bundle has no panic stack (got %d bytes)", len(b.Stack))
	}
	if !strings.HasPrefix(b.Retry, "checks-on retry failed:") ||
		!strings.Contains(b.Retry, "coherence:") {
		t.Errorf("retry did not diagnose the fault as a coherence violation: %q", b.Retry)
	}
	if len(b.LastOps) == 0 {
		t.Error("retry captured no operation trail")
	} else if s := b.LastOps[len(b.LastOps)-1].String(); !strings.Contains(s, "cpu") {
		t.Errorf("op trace renders oddly: %q", s)
	}
}

// TestNoDoubleRetry: a point that already ran with checking on is not
// retried (the failure is already structured).
func TestNoDoubleRetry(t *testing.T) {
	pt := faultPoint("checked")
	pt.Config.Check = CheckTouched
	results, err := RunAll(context.Background(), []Point{pt}, RunOptions{})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(results[0].Err.Error(), "coherence:") {
		t.Errorf("checked run did not fail structurally: %v", results[0].Err)
	}
	if b := results[0].Repro; b == nil || b.Retry != "" {
		t.Errorf("checked failure should carry a bundle without retry, got %+v", b)
	}
}

// TestSweepPartialResults: a sweep whose cells fail still returns every
// grid point, with nil holes annotated by their error and bundle. The
// cells run checked, so their failures are already structured and skip
// the checks-on retry.
func TestSweepPartialResults(t *testing.T) {
	base := DefaultConfig()
	base.Faults = "drop-inval@200"
	base.Check = CheckTouched
	results, runErr := Sweep(context.Background(), base, SweepBlock, "mp3d", ScaleTest, RunOptions{})
	if len(results) == 0 {
		t.Fatal("sweep returned no grid points")
	}
	var holes, cells int
	for _, pt := range results {
		if len(pt.Results) == 0 {
			t.Errorf("%s: no protocol map", pt.Label)
		}
		for p, r := range pt.Results {
			cells++
			if r != nil {
				if pt.Errs[p] != nil {
					t.Errorf("%s/%s: both result and error", pt.Label, p)
				}
				continue
			}
			holes++
			if pt.Errs[p] == nil {
				t.Errorf("%s/%s: hole without an error annotation", pt.Label, p)
			}
			if pt.Repros[p] == nil {
				t.Errorf("%s/%s: hole without a repro bundle", pt.Label, p)
			}
		}
	}
	if holes == 0 {
		t.Fatal("fault injection produced no failed cells — the partial path went untested")
	}
	if runErr == nil {
		t.Error("sweep with failed cells returned a nil aggregate error")
	}
	t.Logf("%d/%d cells failed, sweep stayed alive", holes, cells)
}

// TestBadFaultSpec: a malformed Config.Faults fails fast at config
// lowering, not mid-run.
func TestBadFaultSpec(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = "made-up-class"
	if _, err := Run(cfg, "mp3d", ScaleTest); err == nil ||
		!strings.Contains(err.Error(), "fault:") {
		t.Errorf("bad fault spec not rejected: %v", err)
	}
}
