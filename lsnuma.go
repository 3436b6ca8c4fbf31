package lsnuma

import (
	"context"
	"fmt"

	"lsnuma/internal/engine"
	"lsnuma/internal/workload"
	"lsnuma/internal/workload/cholesky"
	"lsnuma/internal/workload/lu"
	"lsnuma/internal/workload/mp3d"
	"lsnuma/internal/workload/oltp"
)

// registry holds the four paper workloads.
var registry = func() *workload.Registry {
	r := workload.NewRegistry()
	r.Register("mp3d", mp3d.New)
	r.Register("cholesky", cholesky.New)
	r.Register("lu", lu.New)
	r.Register("oltp", oltp.New)
	return r
}()

// Workloads lists the available workload names.
func Workloads() []string { return registry.Names() }

// NewWorkload instantiates the named workload at the given scale for a
// machine of cpus processors. An unknown name's error lists the
// available ones.
func NewWorkload(name string, scale Scale, cpus int) (workload.Workload, error) {
	return registry.New(name, scale, cpus)
}

// Run simulates the named workload at the given scale under cfg and
// returns the full measurement set.
func Run(cfg Config, workloadName string, scale Scale) (*Result, error) {
	res, _, err := runNamed(context.Background(), cfg, workloadName, scale)
	return res, err
}

// runNamed is Run returning the underlying machine as well, so failure
// paths (RunAll's retry escalation) can read crash diagnostics — the
// last-ops ring — off the dead machine. The machine is nil when the
// failure precedes machine construction.
func runNamed(ctx context.Context, cfg Config, workloadName string, scale Scale) (*Result, *engine.Machine, error) {
	w, err := NewWorkload(workloadName, scale, cfg.Nodes)
	if err != nil {
		return nil, nil, err
	}
	return runMachine(ctx, cfg, w, scale.String())
}

// RunWorkload simulates an arbitrary workload (including user-defined
// ones implementing the workload interface via RunPrograms).
func RunWorkload(cfg Config, w workload.Workload, scaleName string) (*Result, error) {
	res, _, err := runMachine(context.Background(), cfg, w, scaleName)
	return res, err
}

// runMachine builds, runs and measures one simulation point on a fresh
// machine, which it returns with the Result or the error, so a failed
// point's diagnostics (the last-ops ring) can still be read off it. When
// ctx is cancellable, the machine polls it between operations and aborts
// the run with an engine.CancelledError once it expires — the hook
// behind RunOptions.PointTimeout.
func runMachine(ctx context.Context, cfg Config, w workload.Workload, scaleName string) (*Result, *engine.Machine, error) {
	ec, err := cfg.engineConfig()
	if err != nil {
		return nil, nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		ec.Cancel = ctx.Err
	}
	m, err := engine.NewMachine(ec)
	if err != nil {
		return nil, nil, err
	}
	progs, err := w.Programs(m)
	if err != nil {
		return nil, m, err
	}
	if err := m.Run(progs); err != nil {
		return nil, m, fmt.Errorf("lsnuma: %s on %s: %w", w.Name(), cfg.ProtocolName(), err)
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
	return res, m, nil
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
	return RunWorkload(cfg, customWorkload{name: name, build: build}, "custom")
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
