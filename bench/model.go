package main

import (
	"errors"
	"fmt"
	"time"

	"lsnuma"
	"lsnuma/internal/cache"
	"lsnuma/internal/directory"
	"lsnuma/internal/engine"
	"lsnuma/internal/memory"
	"lsnuma/internal/workload"
	"lsnuma/internal/workload/cholesky"
	"lsnuma/internal/workload/lu"
	"lsnuma/internal/workload/mp3d"
	"lsnuma/internal/workload/oltp"
)

// modelOps bounds the op stream captured per point. Capture forces the
// serial scheduler and the full streams run to 31M operations, so the
// model times a prefix and scales by the run's own event counts.
const modelOps = 500_000

var errPrefixFull = errors.New("op prefix captured")

// layerCost is one point's cost of the cache hierarchy per operation and
// of a directory lookup per global transaction, timed in isolation.
type layerCost struct {
	cacheNsPerOp, dirNsPerTxn float64
}

func newWorkload(name string, scale lsnuma.Scale, cpus int) (workload.Workload, error) {
	switch name {
	case "mp3d":
		return mp3d.New(scale, cpus), nil
	case "cholesky":
		return cholesky.New(scale, cpus), nil
	case "lu":
		return lu.New(scale, cpus), nil
	case "oltp":
		return oltp.New(scale, cpus), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// capturePrefix records the first modelOps operations the point issues,
// in the serial service order, then aborts the run.
func capturePrefix(cfg lsnuma.Config, name string, scale lsnuma.Scale) ([]engine.OpRecord, error) {
	m, err := lsnuma.NewEngineMachine(cfg)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(name, scale, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	progs, err := w.Programs(m)
	if err != nil {
		return nil, err
	}
	ops := make([]engine.OpRecord, 0, modelOps)
	m.SetRecorder(func(rec engine.OpRecord) {
		if len(ops) == modelOps {
			// The engine's cancellation path: the run unwinds cleanly and
			// returns this error.
			panic(&engine.CancelledError{Err: errPrefixFull})
		}
		ops = append(ops, rec)
	})
	if err := m.Run(progs); err != nil && !errors.Is(err, errPrefixFull) {
		return nil, err
	}
	return ops, nil
}

// modelPoint replays a captured prefix through one cache hierarchy per
// CPU, filling on every global action (no other CPU's coherence traffic
// interferes), then looks every global transaction up in a directory.
func modelPoint(cfg lsnuma.Config, name string, scale lsnuma.Scale) (layerCost, error) {
	ops, err := capturePrefix(cfg, name, scale)
	if err != nil {
		return layerCost{}, err
	}
	layout, err := memory.NewLayout(cfg.PageSize, cfg.BlockSize, cfg.Nodes)
	if err != nil {
		return layerCost{}, err
	}
	hs := make([]*cache.Hierarchy, cfg.Nodes)
	for i := range hs {
		l1 := cache.Config{Size: cfg.L1.Size, Assoc: cfg.L1.Assoc, BlockSize: cfg.BlockSize, AccessTime: cfg.L1.AccessTime}
		l2 := cache.Config{Size: cfg.L2.Size, Assoc: cfg.L2.Assoc, BlockSize: cfg.BlockSize, AccessTime: cfg.L2.AccessTime}
		if hs[i], err = cache.NewHierarchy(l1, l2); err != nil {
			return layerCost{}, err
		}
	}
	step := memory.Addr(cfg.BlockSize)
	txns := make([]memory.Addr, 0, len(ops))
	start := time.Now()
	for _, op := range ops {
		h := hs[op.CPU]
		last := layout.Block(op.Addr + memory.Addr(max(op.Size, 1)-1))
		for b := layout.Block(op.Addr); ; b += step {
			switch h.Access(b, op.Kind).Action {
			case cache.GlobalRead:
				h.Fill(b, cache.Shared)
				txns = append(txns, b)
			case cache.GlobalWriteMiss:
				h.Fill(b, cache.Modified)
				txns = append(txns, b)
			case cache.GlobalUpgrade:
				h.Upgrade(b)
				txns = append(txns, b)
			}
			if b >= last {
				break
			}
		}
	}
	cacheTime := time.Since(start)

	// Lookups are timed on a warm directory: a run's entries are created
	// once and then looked up many times.
	dir := directory.New(layout, nil)
	for _, b := range txns {
		dir.Entry(b)
	}
	start = time.Now()
	for _, b := range txns {
		dir.Entry(b)
	}
	dirTime := time.Since(start)
	c := layerCost{cacheNsPerOp: float64(cacheTime.Nanoseconds()) / float64(len(ops))}
	if len(txns) > 0 {
		c.dirNsPerTxn = float64(dirTime.Nanoseconds()) / float64(len(txns))
	}
	return c, nil
}

// runModel is the layer cross-check for the bigmachine workload: the
// isolated per-event costs times the traced run's event counts, beside
// the profile's cache and directory time for the same invocations.
func runModel(traced *cliRun, buckets map[string]time.Duration) (map[string]metric, error) {
	costs := map[string]layerCost{}
	for _, b := range bigPoints {
		c, err := modelPoint(bigConfig(b.workload, b.nodes), b.workload, lsnuma.ScaleSmall)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", bigName(b.workload, b.nodes), err)
		}
		costs[bigName(b.workload, b.nodes)] = c
	}
	var modelCache, modelDir float64 // ns
	for _, s := range traced.samples {
		for _, r := range traced.results[s.name] {
			c := costs[s.name]
			modelCache += c.cacheNsPerOp * float64(r.Loads+r.Stores)
			modelDir += c.dirNsPerTxn * float64(r.GlobalReadMisses()+r.GlobalWriteMisses+r.GlobalInv)
		}
	}
	profCache, profDir := buckets["cache"].Seconds(), buckets["directory"].Seconds()
	ratio := func(model, prof float64) float64 {
		if prof == 0 {
			return 0
		}
		return model / prof
	}
	return map[string]metric{
		"model.cache_ratio":     {Value: ratio(modelCache/1e9, profCache), Unit: "ratio"},
		"model.directory_ratio": {Value: ratio(modelDir/1e9, profDir), Unit: "ratio"},
		"model.cache_s":         {Value: modelCache / 1e9, Unit: "s"},
		"model.directory_s":     {Value: modelDir / 1e9, Unit: "s"},
		"cpu.cache_s":           {Value: profCache, Unit: "s"},
		"cpu.directory_s":       {Value: profDir, Unit: "s"},
	}, nil
}
