package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"lsnuma"
	"lsnuma/internal/report"
)

// goldenPath holds the committed references outputs are checked against.
// paper-all is checked against results_paper.txt instead.
const goldenPath = "bench/testdata/golden.json"

// golden maps each checked output to the SHA-256 of its reference.
type golden struct {
	// BigMachine: "mp3d/1024" -> digest of the Result.
	BigMachine map[string]string `json:"bigmachine"`
	// Robust: "mp3d/LS" -> digest of the lossless Result with the fields a
	// lossy run may change stripped (see stripLossy).
	Robust map[string]string `json:"robust"`
	// Points: "mp3d/block=16B/LS" -> digest of the Result. Only points that
	// simulate without error are in the daemon's key space.
	Points map[string]string `json:"daemon_points"`
	// Sweeps: "mp3d/block" -> digest of each cell's text, in grid order.
	// Only sweeps whose every point simulates are requested.
	Sweeps map[string][]string `json:"daemon_sweeps"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(g.BigMachine) == 0 || len(g.Robust) == 0 || len(g.Points) == 0 || len(g.Sweeps) == 0 {
		return nil, fmt.Errorf("%s: a section is empty; regenerate with -update", path)
	}
	return &g, nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestResult hashes a Result's compact JSON.
func digestResult(r *lsnuma.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

// digestJSON hashes a Result as served (in any indentation) the way
// digestResult hashes it in-process: encoding/json writes fields in one
// order and every value round-trips exactly, so only whitespace can
// differ.
func digestJSON(raw []byte) (string, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return "", err
	}
	return digestBytes(b.Bytes()), nil
}

// stripLossy zeroes the fields a run under message loss may differ in
// from the same run without loss: the traffic counters (retransmissions
// count as messages) and the resilience accounting. Everything else must
// match exactly; the lossless-equivalence tests in the root package hold
// the simulator to this.
func stripLossy(r *lsnuma.Result) *lsnuma.Result {
	c := *r
	c.Msgs, c.Bytes = 0, 0
	c.ClassMsgs, c.ClassBytes = [3]uint64{}, [3]uint64{}
	c.Resil = lsnuma.ResilRow{}
	return &c
}

// baseConfig is the paper configuration each CLI and the daemon start
// from for a workload.
func baseConfig(workload string) lsnuma.Config {
	if workload == "oltp" {
		return lsnuma.OLTPConfig()
	}
	return lsnuma.DefaultConfig()
}

// bigPoints are the bigmachine workload's points: each paper workload at
// the largest machine its small-scale input keeps busy.
var bigPoints = []struct {
	workload string
	nodes    int
}{{"mp3d", 1024}, {"cholesky", 256}, {"lu", 64}, {"oltp", 64}}

const bigDirFormat = "coarse:8"

func bigName(workload string, nodes int) string { return workload + "/" + strconv.Itoa(nodes) }

// bigConfig is what `lssim -protocol LS -dirformat coarse:8 -nodes N` runs.
func bigConfig(workload string, nodes int) lsnuma.Config {
	cfg := baseConfig(workload)
	cfg.Nodes = nodes
	cfg.Protocol = lsnuma.LS
	cfg.DirFormat = bigDirFormat
	return cfg
}

// The robust workload's buffers, retry policy and message-fault mix; the
// fault seed comes from the run seed.
const (
	robustNodes  = 4
	robustMSHRs  = 4
	robustRetry  = "max:64,base:100,cap:4000,jitter:11"
	robustFaults = "drop-msg@0.01,dup-msg@0.005,reorder-msg@0.005"
)

// robustConfig is the robust workload's configuration without faults.
func robustConfig(workload string) lsnuma.Config {
	cfg := baseConfig(workload)
	cfg.Nodes = robustNodes
	cfg.DirMSHRs = robustMSHRs
	cfg.Retry = robustRetry
	cfg.Check = lsnuma.CheckFull
	return cfg
}

// daemonPoint is one candidate of the daemon's key space: a cell of a
// Table 1 sweep grid under one protocol, at test scale.
type daemonPoint struct {
	name     string // "mp3d/block=16B/LS"
	workload string
	cfg      lsnuma.Config
}

// daemonSweep is one candidate sweep request.
type daemonSweep struct {
	name     string // "mp3d/block"
	workload string
	axis     lsnuma.SweepParam
	grid     []lsnuma.SweepPoint
	points   []lsnuma.Point
}

// daemonSpace lists every sweep (with its points) over the four workloads
// and four axes. Points and sweeps share configurations, so they share
// result-cache entries in the daemon.
func daemonSpace() ([]daemonSweep, error) {
	var out []daemonSweep
	for _, w := range lsnuma.Workloads() {
		for _, axis := range lsnuma.SweepParams() {
			grid, pts, err := lsnuma.SweepPoints(axis, baseConfig(w), w, lsnuma.ScaleTest)
			if err != nil {
				return nil, err
			}
			out = append(out, daemonSweep{name: w + "/" + string(axis), workload: w, axis: axis, grid: grid, points: pts})
		}
	}
	return out, nil
}

func (s daemonSweep) pointList() []daemonPoint {
	out := make([]daemonPoint, len(s.points))
	for i, p := range s.points {
		out[i] = daemonPoint{name: s.workload + "/" + p.Label, workload: s.workload, cfg: p.Config}
	}
	return out
}

// update regenerates the golden file in-process through lsnuma: the
// references come from the library, not from the binaries under test.
func update(ctx context.Context, path string) error {
	g := &golden{
		BigMachine: map[string]string{},
		Robust:     map[string]string{},
		Points:     map[string]string{},
		Sweeps:     map[string][]string{},
	}
	opt := lsnuma.RunOptions{Parallelism: 2}

	// digestAll runs pts and stores each Result's digest under its label.
	digestAll := func(pts []lsnuma.Point, into map[string]string, prep func(*lsnuma.Result) *lsnuma.Result) error {
		prs, err := lsnuma.RunAll(ctx, pts, opt)
		if err != nil {
			return err
		}
		for i, pr := range prs {
			if into[pts[i].Label], err = digestResult(prep(pr.Result)); err != nil {
				return err
			}
		}
		return nil
	}
	var big, robust []lsnuma.Point
	for _, b := range bigPoints {
		big = append(big, lsnuma.Point{Label: bigName(b.workload, b.nodes), Config: bigConfig(b.workload, b.nodes), Workload: b.workload, Scale: lsnuma.ScaleSmall})
	}
	for _, w := range lsnuma.Workloads() {
		for _, p := range lsnuma.Protocols() {
			cfg := robustConfig(w)
			cfg.Protocol = p
			robust = append(robust, lsnuma.Point{Label: w + "/" + string(p), Config: cfg, Workload: w, Scale: lsnuma.ScaleSmall})
		}
	}
	if err := digestAll(big, g.BigMachine, func(r *lsnuma.Result) *lsnuma.Result { return r }); err != nil {
		return err
	}
	if err := digestAll(robust, g.Robust, stripLossy); err != nil {
		return err
	}

	sweeps, err := daemonSpace()
	if err != nil {
		return err
	}
	for _, s := range sweeps {
		// A failed point (a configuration the simulator cannot build) is
		// left out of the key space, and so is every sweep containing it.
		prs, _ := lsnuma.RunAll(ctx, s.points, opt)
		whole := true
		for i, p := range s.pointList() {
			if prs[i].Err != nil {
				whole = false
				continue
			}
			if g.Points[p.name], err = digestResult(prs[i].Result); err != nil {
				return err
			}
		}
		if !whole {
			fmt.Fprintf(os.Stderr, "update: sweep %s has failing points; left out of the key space\n", s.name)
			continue
		}
		n := len(lsnuma.Protocols())
		for ci, cell := range s.grid {
			text, _ := report.SweepCell(lsnuma.CellResult(cell, prs[ci*n:(ci+1)*n]))
			g.Sweeps[s.name] = append(g.Sweeps[s.name], digestBytes([]byte(text)))
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
