package lsnuma

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestCompareParallelDeterminism guards against shared-state leaks between
// concurrently running machines: every protocol's Result from a parallel
// RunAll over ComparePoints must be bit-identical to a serial Run of the
// same configuration.
func TestCompareParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		workload string
		cfg      Config
	}{
		{"mp3d", DefaultConfig()},
		{"oltp", OLTPConfig()},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			serial := make(map[Protocol]*Result)
			for _, p := range Protocols() {
				cfg := tc.cfg
				cfg.Protocol = p
				res, err := Run(cfg, tc.workload, ScaleTest)
				if err != nil {
					t.Fatal(err)
				}
				serial[p] = res
			}
			parallel, err := RunAll(context.Background(), ComparePoints(tc.cfg, tc.workload, ScaleTest),
				RunOptions{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range parallel {
				p := pr.Config.Protocol
				if !reflect.DeepEqual(serial[p], pr.Result) {
					t.Errorf("%s/%s: parallel Result differs from serial Result\nserial:   %+v\nparallel: %+v",
						tc.workload, p, serial[p], pr.Result)
				}
			}
		})
	}
}

// sweepPoints builds the 12-point block-size x protocol matrix of mp3d
// at test scale.
func sweepPoints(tb testing.TB) []Point {
	tb.Helper()
	grid, err := sweepGrid(SweepBlock, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var points []Point
	for _, g := range grid {
		for _, p := range Protocols() {
			cfg := g.Config
			cfg.Protocol = p
			points = append(points, Point{
				Label:    fmt.Sprintf("%s/%s", g.Label, p),
				Config:   cfg,
				Workload: "mp3d",
				Scale:    ScaleTest,
			})
		}
	}
	return points
}

// TestRunAllDeterminism runs the same point matrix serially and in
// parallel and requires bit-identical results in identical order.
func TestRunAllDeterminism(t *testing.T) {
	points := sweepPoints(t)
	serial, err := RunAll(context.Background(), points, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(context.Background(), points, RunOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if serial[i].Label != points[i].Label || parallel[i].Label != points[i].Label {
			t.Fatalf("result %d out of order: serial %q parallel %q want %q",
				i, serial[i].Label, parallel[i].Label, points[i].Label)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("%s: parallel Result differs from serial", points[i].Label)
		}
	}
}

// TestRunAllErrorIsolation: one invalid point is reported as that point's
// error while every other point completes with a Result.
func TestRunAllErrorIsolation(t *testing.T) {
	bad := DefaultConfig()
	bad.Nodes = 0 // invalid
	points := []Point{
		{Label: "good-1", Config: DefaultConfig(), Workload: "mp3d", Scale: ScaleTest},
		{Label: "bad", Config: bad, Workload: "mp3d", Scale: ScaleTest},
		{Label: "good-2", Config: DefaultConfig(), Workload: "cholesky", Scale: ScaleTest},
	}
	results, err := RunAll(context.Background(), points, RunOptions{Parallelism: 2})
	if err == nil {
		t.Fatal("want aggregated error for the invalid point")
	}
	if results[0].Result == nil || results[0].Err != nil {
		t.Errorf("good-1 did not complete: %+v", results[0].Err)
	}
	if results[1].Err == nil || results[1].Result != nil {
		t.Errorf("bad point not reported: %+v", results[1])
	}
	if results[2].Result == nil || results[2].Err != nil {
		t.Errorf("good-2 did not complete: %+v", results[2].Err)
	}
}

// TestRunAllCancellation: a pre-cancelled context skips all points and
// records the context error per point.
func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	points := []Point{
		{Label: "a", Config: DefaultConfig(), Workload: "mp3d", Scale: ScaleTest},
		{Label: "b", Config: DefaultConfig(), Workload: "lu", Scale: ScaleTest},
	}
	results, err := RunAll(ctx, points, RunOptions{})
	if err == nil {
		t.Fatal("want error from cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap context.Canceled: %v", err)
	}
	for _, r := range results {
		if r.Result != nil {
			t.Errorf("%s: ran despite cancelled context", r.Label)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: Err = %v, want context.Canceled", r.Label, r.Err)
		}
	}
}

// TestSweepGridDefinitions pins the shared Table 1 grids that lssweep,
// lsreport and the benchmarks rely on.
func TestSweepGridDefinitions(t *testing.T) {
	wantLabels := map[SweepParam][]string{
		SweepBlock: {"block=16B", "block=32B", "block=64B", "block=128B"},
		SweepL1:    {"l1=4kB", "l1=16kB", "l1=32kB", "l1=64kB"},
		SweepL2:    {"l2=64kB", "l2=512kB", "l2=1024kB", "l2=2048kB"},
		SweepNodes: {"nodes=2", "nodes=4", "nodes=8", "nodes=16", "nodes=32"},
	}
	for _, param := range SweepParams() {
		grid, err := sweepGrid(param, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, g := range grid {
			labels = append(labels, g.Label)
			if err := g.Config.Validate(); err != nil {
				t.Errorf("%s/%s: invalid grid config: %v", param, g.Label, err)
			}
		}
		if !reflect.DeepEqual(labels, wantLabels[param]) {
			t.Errorf("%s grid = %v, want %v", param, labels, wantLabels[param])
		}
	}
	if _, err := sweepGrid("bogus", DefaultConfig()); err == nil {
		t.Error("bogus sweep param accepted")
	}
	if _, err := ParseSweepParam("nope"); err == nil {
		t.Error("ParseSweepParam accepted garbage")
	}
	if p, err := ParseSweepParam("block"); err != nil || p != SweepBlock {
		t.Errorf("ParseSweepParam(block) = %v, %v", p, err)
	}
}

// TestSweepEndToEnd runs a small sweep through the public API and checks
// the grouped results and baseline normalization inputs are present.
func TestSweepEndToEnd(t *testing.T) {
	results, err := Sweep(context.Background(), DefaultConfig(), SweepNodes, "mp3d", ScaleTest,
		RunOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d grid points, want 5", len(results))
	}
	for _, pt := range results {
		for _, p := range Protocols() {
			r := pt.Results[p]
			if r == nil {
				t.Fatalf("%s/%s: missing result", pt.Label, p)
			}
			if r.ExecTime == 0 {
				t.Errorf("%s/%s: zero execution time", pt.Label, p)
			}
		}
	}
}

// TestPointResultFresh: the freshness predicate matches the cache flags.
func TestPointResultFresh(t *testing.T) {
	res := &Result{}
	cases := []struct {
		pr   PointResult
		want bool
	}{
		{PointResult{Result: res}, true},
		{PointResult{Result: res, Cached: true}, false},
		{PointResult{Result: res, Deduped: true}, false},
		{PointResult{Err: context.Canceled}, false},
		{PointResult{}, false},
	}
	for i, tc := range cases {
		if got := tc.pr.Fresh(); got != tc.want {
			t.Errorf("case %d: Fresh() = %v, want %v", i, got, tc.want)
		}
	}
}
