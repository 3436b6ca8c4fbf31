package lsnuma

import (
	"context"
	"fmt"
)

// SweepParam identifies one axis of the paper's Table 1 parameter space
// (the Section 5.5 variation analysis).
type SweepParam string

// The four sweep axes shared by cmd/lssweep, the lsnumad daemon's sweep
// jobs and the benchmark harness.
const (
	SweepBlock SweepParam = "block" // block sizes 16..128 B (Table 1)
	SweepL1    SweepParam = "l1"    // L1 sizes 4..64 kB (Table 1)
	SweepL2    SweepParam = "l2"    // L2 sizes 64 kB..2 MB (Table 1)
	SweepNodes SweepParam = "nodes" // processor counts 2..32 (Figure 5 regime)
)

// SweepParams lists the supported sweep axes.
func SweepParams() []SweepParam {
	return []SweepParam{SweepBlock, SweepL1, SweepL2, SweepNodes}
}

// ParseSweepParam converts a string (e.g. a CLI flag) to a SweepParam.
func ParseSweepParam(s string) (SweepParam, error) {
	for _, p := range SweepParams() {
		if s == string(p) {
			return p, nil
		}
	}
	return "", fmt.Errorf("unknown sweep %q (want block, l1, l2, nodes)", s)
}

// SweepPoint is one labeled configuration of a sweep grid.
type SweepPoint struct {
	Label  string
	Config Config
}

// SweepGrid returns the labeled configurations of the Table 1 sweep along
// param, derived from base. This is the single definition of the grids
// that cmd/lssweep prints, lsnumad's sweep jobs stream and the benchmark
// harness samples.
func SweepGrid(param SweepParam, base Config) ([]SweepPoint, error) {
	var points []SweepPoint
	switch param {
	case SweepBlock:
		// Table 1: block sizes 16..128 (lsreport's Table 4 keeps its own
		// 16..256 B list).
		for _, b := range []uint64{16, 32, 64, 128} {
			cfg := base
			cfg.BlockSize = b
			points = append(points, SweepPoint{fmt.Sprintf("block=%dB", b), cfg})
		}
	case SweepL1:
		// Table 1: L1 sizes 4..64 kB.
		for _, kb := range []uint64{4, 16, 32, 64} {
			cfg := base
			cfg.L1.Size = kb * 1024
			points = append(points, SweepPoint{fmt.Sprintf("l1=%dkB", kb), cfg})
		}
	case SweepL2:
		// Table 1: L2 sizes 64 kB..2 MB. The L1 must stay no larger than
		// the (inclusive) L2.
		for _, kb := range []uint64{64, 512, 1024, 2048} {
			cfg := base
			cfg.L2.Size = kb * 1024
			if cfg.L1.Size > cfg.L2.Size {
				cfg.L1.Size = cfg.L2.Size / 2
			}
			points = append(points, SweepPoint{fmt.Sprintf("l2=%dkB", kb), cfg})
		}
	case SweepNodes:
		for _, n := range []int{2, 4, 8, 16, 32} {
			cfg := base
			cfg.Nodes = n
			points = append(points, SweepPoint{fmt.Sprintf("nodes=%d", n), cfg})
		}
	default:
		return nil, fmt.Errorf("unknown sweep %q (want block, l1, l2, nodes)", param)
	}
	return points, nil
}

// SweepResult is one grid point's protocol comparison. A failed cell
// leaves a nil entry in Results and records its error (and diagnostic
// bundle) under the same protocol key — an annotated hole rather than a
// dead sweep.
type SweepResult struct {
	Label   string
	Config  Config
	Results map[Protocol]*Result
	// Errs holds the failure of each failed cell (no key for successes).
	Errs map[Protocol]error
	// Repros holds the diagnostic bundles of failed cells.
	Repros map[Protocol]*ReproBundle
}

// SweepPoints expands the Table 1 grid along param into the flat
// (point, protocol) list that Sweep executes: the labeled grid plus
// len(grid)*len(Protocols()) points in grid-major, protocol-minor
// order. Exported so services (the lsnumad daemon) can run the exact
// point set Sweep would and stream cells as they complete.
func SweepPoints(param SweepParam, base Config, workloadName string, scale Scale) ([]SweepPoint, []Point, error) {
	grid, err := SweepGrid(param, base)
	if err != nil {
		return nil, nil, err
	}
	protos := Protocols()
	points := make([]Point, 0, len(grid)*len(protos))
	for _, g := range grid {
		for _, p := range protos {
			cfg := g.Config
			cfg.Protocol = p
			points = append(points, Point{
				Label:    fmt.Sprintf("%s/%s", g.Label, p),
				Config:   cfg,
				Workload: workloadName,
				Scale:    scale,
			})
		}
	}
	return grid, points, nil
}

// CellResult assembles one grid point's SweepResult from its
// per-protocol PointResults (in Protocols() order — the slice
// results[i*len(Protocols()) : (i+1)*len(Protocols())] of a
// SweepPoints run).
func CellResult(g SweepPoint, prs []PointResult) SweepResult {
	protos := Protocols()
	out := SweepResult{Label: g.Label, Config: g.Config, Results: make(map[Protocol]*Result, len(protos))}
	for j, p := range protos {
		pr := prs[j]
		out.Results[p] = pr.Result
		if pr.Err != nil {
			if out.Errs == nil {
				out.Errs = make(map[Protocol]error)
				out.Repros = make(map[Protocol]*ReproBundle)
			}
			out.Errs[p] = pr.Err
			out.Repros[p] = pr.Repro
		}
	}
	return out
}

// Sweep runs the Table 1 grid along param for the workload under every
// protocol, with all (point, protocol) simulations executing concurrently
// on a bounded worker pool. Results come back in grid order; a failed
// simulation leaves a nil entry in its point's map and is reported in the
// aggregated error, without aborting the other points.
func Sweep(ctx context.Context, base Config, param SweepParam, workloadName string, scale Scale, opt RunOptions) ([]SweepResult, error) {
	grid, points, err := SweepPoints(param, base, workloadName, scale)
	if err != nil {
		return nil, err
	}
	results, runErr := RunAll(ctx, points, opt)
	protos := Protocols()
	out := make([]SweepResult, len(grid))
	for i, g := range grid {
		out[i] = CellResult(g, results[i*len(protos):(i+1)*len(protos)])
	}
	return out, runErr
}
