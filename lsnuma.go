package lsnuma

import (
	"context"
	"fmt"
	"sort"

	"lsnuma/internal/engine"
	"lsnuma/internal/workload"
	"lsnuma/internal/workload/cholesky"
	"lsnuma/internal/workload/lu"
	"lsnuma/internal/workload/mp3d"
	"lsnuma/internal/workload/oltp"
)

// workloads maps the four paper workloads' names to their constructors.
var workloads = map[string]func(Scale, int) workload.Workload{
	"mp3d":     mp3d.New,
	"cholesky": cholesky.New,
	"lu":       lu.New,
	"oltp":     oltp.New,
}

// Workloads lists the available workload names in sorted order.
func Workloads() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewWorkload instantiates the named workload at the given scale for a
// machine of cpus processors. An unknown name's error lists the
// available ones.
func NewWorkload(name string, scale Scale, cpus int) (workload.Workload, error) {
	ctor, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Workloads())
	}
	return ctor(scale, cpus), nil
}

// Run simulates the named workload at the given scale under cfg and
// returns the full measurement set.
func Run(cfg Config, workloadName string, scale Scale) (*Result, error) {
	return runNamed(context.Background(), cfg, workloadName, scale, nil)
}

// runNamed is Run with a context (see runMachine) and an optional
// recorder hook, which RunAll's checks-on retry uses to keep the
// failure's operation trail.
func runNamed(ctx context.Context, cfg Config, workloadName string, scale Scale, rec func(engine.OpRecord)) (*Result, error) {
	w, err := NewWorkload(workloadName, scale, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	return runMachine(ctx, cfg, w, scale.String(), rec)
}

// runMachine builds, runs and measures one simulation point on a fresh
// machine, with rec (if non-nil) as its recorder hook
// (engine.Machine.SetRecorder). When ctx is cancellable, the machine
// polls it between operations and aborts the run with an
// engine.CancelledError once it expires — the hook behind
// RunOptions.PointTimeout.
func runMachine(ctx context.Context, cfg Config, w workload.Workload, scaleName string, rec func(engine.OpRecord)) (*Result, error) {
	ec, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		ec.Cancel = ctx.Err
	}
	m, err := engine.NewMachine(ec)
	if err != nil {
		return nil, err
	}
	m.SetRecorder(rec)
	progs, err := w.Programs(m)
	if err != nil {
		return nil, err
	}
	if err := m.Run(progs); err != nil {
		return nil, fmt.Errorf("lsnuma: %s on %s: %w", w.Name(), cfg.ProtocolName(), err)
	}
	res := &Result{
		Workload: w.Name(),
		Protocol: cfg.ProtocolName(),
		Scale:    scaleName,
		Nodes:    cfg.Nodes,
	}
	res.Dir.Format = ec.DirFormat.String()
	res.Dir.EntryBits = ec.DirFormat.EntryBits(cfg.Nodes)
	fillResult(res, m.Stats(), m.Sequences(), m.FalseSharing())
	return res, nil
}

// BuildPrograms is the signature for user-defined workloads run through
// RunPrograms: it allocates shared state on the machine and returns one
// program per processor.
type BuildPrograms func(m *engine.Machine) ([]engine.Program, error)

// RunPrograms simulates a custom set of per-processor programs. It gives
// library users the full program-driven API (engine.Proc, locks,
// barriers) without registering a named workload. The programs run one at
// a time, the code before each one's first memory operation included, so
// they may share Go data without locking. They must synchronize only
// through simulated memory (engine locks, barriers, spin reads): a
// program that waits on another through a Go channel, mutex or WaitGroup
// deadlocks the run.
func RunPrograms(cfg Config, name string, build BuildPrograms) (*Result, error) {
	return runMachine(context.Background(), cfg, customWorkload{name: name, build: build}, "custom", nil)
}

type customWorkload struct {
	name  string
	build BuildPrograms
}

func (c customWorkload) Name() string { return c.name }
func (c customWorkload) Programs(m *engine.Machine) ([]engine.Program, error) {
	return c.build(m)
}

// NewEngineMachine builds the underlying simulation machine for advanced
// uses that need direct engine access (trace capture, custom recorders,
// hand-driven programs). Most callers should use Run / RunPrograms.
func NewEngineMachine(cfg Config) (*engine.Machine, error) {
	ec, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	return engine.NewMachine(ec)
}
