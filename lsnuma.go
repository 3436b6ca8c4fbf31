package lsnuma

import (
	"context"
	"fmt"
	"sync"

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
	w, err := registry.New(workloadName, scale, cfg.Nodes)
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

// machineClass is the structural part of a Config: two configs in the
// same class build machines with identical node counts, cache geometry
// and address-space layout, so a machine built for one can be Reset and
// reused for the other (protocol, timing, checking and scheduler settings
// all travel with the per-run engine config).
type machineClass struct {
	Nodes     int
	L1, L2    CacheConfig
	BlockSize uint64
	PageSize  uint64
}

// machinePool holds idle machines for reuse across runs. Re-running a
// sweep point against a Reset machine skips reallocating caches,
// directory pages and scheduler structures — the dominant per-point setup
// cost — while producing bit-identical Results (proven by differential
// tests). Fault-injected runs never enter the pool: injector state is
// per-machine and not reconstructable by Reset.
var machinePool = struct {
	sync.Mutex
	free map[machineClass][]*engine.Machine
	n    int
}{free: make(map[machineClass][]*engine.Machine)}

// maxPooledMachines bounds the pool's memory footprint; beyond it,
// machines finishing a run are simply dropped for the GC.
const maxPooledMachines = 16

func poolClass(c Config) machineClass {
	return machineClass{
		Nodes: c.Nodes, L1: c.L1, L2: c.L2,
		BlockSize: c.BlockSize, PageSize: c.PageSize,
	}
}

func poolable(cfg Config) bool { return cfg.Faults == "" }

// acquireMachine returns a pooled machine Reset for ec, or nil when none
// is available (or reuse does not apply).
func acquireMachine(cfg Config, ec engine.Config) *engine.Machine {
	if !poolable(cfg) {
		return nil
	}
	cl := poolClass(cfg)
	machinePool.Lock()
	var m *engine.Machine
	if list := machinePool.free[cl]; len(list) > 0 {
		m = list[len(list)-1]
		list[len(list)-1] = nil
		machinePool.free[cl] = list[:len(list)-1]
		machinePool.n--
	}
	machinePool.Unlock()
	if m == nil {
		return nil
	}
	if err := m.Reset(ec); err != nil {
		// Cannot happen for a class-matched machine; fall back to a fresh
		// build rather than fail the run.
		return nil
	}
	return m
}

// releaseMachine returns a machine that completed a run successfully to
// the pool, trimmed of its per-run state (the run's Result must already
// be filled). Failed runs never release: their machines may hold aborted
// scheduler state and are kept out for diagnostics.
func releaseMachine(cfg Config, m *engine.Machine) bool {
	if !poolable(cfg) {
		return false
	}
	machinePool.Lock()
	defer machinePool.Unlock()
	if machinePool.n >= maxPooledMachines {
		return false
	}
	m.Trim()
	cl := poolClass(cfg)
	machinePool.free[cl] = append(machinePool.free[cl], m)
	machinePool.n++
	return true
}

// runMachine builds (or reuses, see machinePool), runs and measures one
// simulation point, returning the machine when the run fails (for
// diagnostics; nil on success — a successful machine may already be back
// in the pool serving another run). When ctx is cancellable, the machine
// polls it between operations and aborts the run with an
// engine.CancelledError once it expires — the hook behind
// RunOptions.PointTimeout.
func runMachine(ctx context.Context, cfg Config, w workload.Workload, scaleName string) (*Result, *engine.Machine, error) {
	ec, err := cfg.engineConfig()
	if err != nil {
		return nil, nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		ec.Cancel = ctx.Err
	}
	m := acquireMachine(cfg, ec)
	if m == nil {
		m, err = engine.NewMachine(ec)
		if err != nil {
			return nil, nil, err
		}
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
	if releaseMachine(cfg, m) {
		return res, nil, nil
	}
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
