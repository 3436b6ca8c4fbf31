package lsnuma

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"lsnuma/internal/engine"
	"lsnuma/internal/runner"
)

// Point is one independent simulation of a (config, workload, scale)
// triple — one cell of the paper's evaluation matrix.
type Point struct {
	// Label identifies the point in reports (e.g. "block=64B/LS").
	Label    string
	Config   Config
	Workload string
	Scale    Scale
}

// PointResult pairs a Point with its outcome: exactly one of Result and
// Err is non-nil. A failed point additionally carries a Repro bundle.
type PointResult struct {
	Point
	Result *Result
	Err    error
	// Repro is the diagnostic bundle of a failed point (nil on success).
	Repro *ReproBundle
	// Cached reports that Result came from the persistent result cache
	// (RunOptions.Cache) instead of a fresh simulation.
	Cached bool
	// Deduped reports that the outcome was shared from a concurrent
	// in-flight computation of an identical point (single-flight
	// stampede protection in RunOptions.Cache) rather than computed or
	// read from disk by this point itself.
	Deduped bool
}

// Fresh reports that the point's Result came from a fresh simulation in
// this process — not the persistent cache, not a shared in-flight
// computation, and not a failure. Durability assertions (the lsnumad
// crash-restart harness) use it to prove that resumed sweeps recompute
// nothing that was already durable.
func (pr PointResult) Fresh() bool {
	return pr.Err == nil && pr.Result != nil && !pr.Cached && !pr.Deduped
}

// OpTrace is one memory operation from a failed run's crash-diagnostics
// ring buffer (Config.RecordOps).
type OpTrace struct {
	CPU  int    // issuing processor
	At   uint64 // processor clock at issue
	Addr uint64
	Size uint32
	Kind string // "load" or "store"
	RMW  bool
}

func (o OpTrace) String() string {
	rmw := ""
	if o.RMW {
		rmw = " (rmw)"
	}
	return fmt.Sprintf("cpu%d@%d %s %#x+%d%s", o.CPU, o.At, o.Kind, o.Addr, o.Size, rmw)
}

// ReproBundle is the diagnostic bundle RunAll captures for a failed
// point: everything needed to reproduce and localize the failure offline.
type ReproBundle struct {
	// Config, Workload and Scale reproduce the failing simulation.
	Config   Config
	Workload string
	Scale    Scale
	// Stack is the panic stack trace when the failure was a panic
	// (empty for clean errors such as coherence violations).
	Stack string
	// Diagnosis is the forward-progress watchdog's full report when the
	// failure was a starvation (engine.StarvationError): the stuck block,
	// its requester set and the retry histogram. Empty otherwise.
	Diagnosis string
	// Retry records the outcome of the automatic retry with the online
	// invariant checker enabled (empty when no retry ran — the original
	// run already had checking on, or the failure was already
	// structured).
	Retry string
	// LastOps is the tail of the retry run's operation ring: the memory
	// operations serviced just before the failure (empty when the retry
	// succeeded, did not run, or died before servicing anything).
	LastOps []OpTrace
}

// RunOptions controls the parallel execution of a point set.
type RunOptions struct {
	// Parallelism bounds the number of simulations running at once;
	// <= 0 selects runtime.GOMAXPROCS(0) (all cores).
	Parallelism int
	// PointTimeout bounds each point's wall-clock runtime. An expired
	// point aborts between operations with an engine.CancelledError
	// wrapping context.DeadlineExceeded and is reported as an annotated
	// hole in sweep reports, not retried. Zero means no per-point bound.
	PointTimeout time.Duration
	// Cache, if non-nil, memoizes point Results persistently: each point
	// is looked up by its content hash before simulating (a hit returns
	// the stored Result byte-identically and marks the PointResult
	// Cached), and successful fresh runs are stored back. Failed points
	// are never cached. Concurrent computations of identical points —
	// within one RunAll or across RunAll calls sharing the cache —
	// additionally collapse into a single simulation (single-flight;
	// the sharers are marked Deduped). See OpenResultCache and
	// NewDedupCache.
	Cache *ResultCache
	// OnPoint, if non-nil, is invoked as each point completes (success,
	// cache hit or failure), before RunAll returns — the streaming hook
	// behind the lsnumad daemon's NDJSON responses and the completion
	// cursor its job journal persists. Calls come from the worker
	// goroutines in completion order, possibly concurrently: the
	// callback must be safe for concurrent use and should return
	// quickly. Points skipped by context cancellation do not invoke it;
	// they appear only in RunAll's returned slice.
	OnPoint func(i int, pr PointResult)
}

// reproRingSize is the operation-ring length used by the automatic
// checks-on retry of a failed point.
const reproRingSize = 32

// runPointDiag runs one point; on failure it builds the repro bundle and
// — unless the failure is already structured or was checked — retries
// once with the online invariant checker enabled, so a cryptic panic gets
// a second chance to be localized as a structured coherence violation
// with an operation trail.
func runPointDiag(ctx context.Context, pt Point) (*Result, *ReproBundle, error) {
	res, _, err := runNamed(ctx, pt.Config, pt.Workload, pt.Scale)
	if err == nil {
		return res, nil, nil
	}
	bundle := &ReproBundle{Config: pt.Config, Workload: pt.Workload, Scale: pt.Scale}
	var ep *engine.PanicError
	if errors.As(err, &ep) {
		bundle.Stack = string(ep.Stack)
	}
	var starve *engine.StarvationError
	if errors.As(err, &starve) {
		bundle.Diagnosis = starve.Diagnosis()
	}
	// A starvation report or an expired per-point deadline is already a
	// structured, localized failure: the checks-on retry would only burn a
	// second timeout (or re-derive what the watchdog said), so skip it.
	structured := bundle.Diagnosis != "" ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	if structured || (pt.Config.Check != "" && pt.Config.Check != CheckOff) {
		return nil, bundle, err
	}
	rcfg := pt.Config
	rcfg.Check = CheckTouched
	if rcfg.RecordOps == 0 {
		rcfg.RecordOps = reproRingSize
	}
	_, m, rerr := runNamed(ctx, rcfg, pt.Workload, pt.Scale)
	if rerr == nil {
		bundle.Retry = "checks-on retry succeeded: the failure did not reproduce under CheckTouched"
		return nil, bundle, err
	}
	bundle.Retry = "checks-on retry failed: " + rerr.Error()
	if m != nil {
		for _, o := range m.LastOps() {
			bundle.LastOps = append(bundle.LastOps, OpTrace{
				CPU: int(o.CPU), At: o.At, Addr: uint64(o.Addr),
				Size: o.Size, Kind: o.Kind.String(), RMW: o.RMW,
			})
		}
	}
	return nil, bundle, err
}

// RunAll executes the points concurrently on a bounded worker pool and
// returns their outcomes in point order (deterministic regardless of
// completion order — every Machine is self-contained, so point i's
// Result is bit-identical to a serial Run of the same point).
//
// One failed point does not abort the sweep: all points run, failures
// are recorded per point, and the returned error aggregates them
// (errors.Join of *runner.JobError; nil when everything succeeded).
// A failed point also carries a ReproBundle — config, panic stack, and
// (after the automatic retry-once-with-checks-on escalation of an
// unchecked run) the checker's diagnosis plus the last operations
// serviced before the failure. Cancelling ctx skips points that have not
// started and records ctx's error for them; points already running
// complete normally. A worker that computed a point collects garbage
// before it takes the next, so a batch's memory peaks at the machines
// running at once.
func RunAll(ctx context.Context, points []Point, opt RunOptions) ([]PointResult, error) {
	out := make([]PointResult, len(points))
	for i := range points {
		out[i].Point = points[i]
	}
	errs, err := runner.RunEach(ctx, len(points), opt.Parallelism, opt.PointTimeout, func(ctx context.Context, i int) error {
		res, bundle, cached, deduped, err := opt.Cache.do(ctx, points[i], func() (*Result, *ReproBundle, error) {
			return runPointDiag(ctx, points[i])
		})
		out[i].Result = res
		out[i].Repro = bundle
		out[i].Cached = cached
		out[i].Deduped = deduped
		out[i].Err = err
		if opt.OnPoint != nil {
			opt.OnPoint(i, out[i])
		}
		if !cached && !deduped {
			// The point's machine is garbage now. Collect it before this
			// worker builds the next one: left to the pacer, a dead
			// machine stays resident until the heap doubles, and a
			// batch's peak memory would depend on where the collections
			// happen to fall between its points.
			runtime.GC()
		}
		return err
	})
	if err != nil {
		// Points skipped by cancellation carry the context error; a panic
		// that escaped the job glue itself (outside the engine's own
		// recovery) is surfaced with the runner's captured stack.
		for i := range out {
			if out[i].Result != nil || out[i].Err != nil {
				continue
			}
			out[i].Err = errs[i]
			if out[i].Err == nil {
				out[i].Err = ctx.Err()
			}
			var pe *runner.PanicError
			if errors.As(errs[i], &pe) {
				out[i].Repro = &ReproBundle{
					Config: points[i].Config, Workload: points[i].Workload,
					Scale: points[i].Scale, Stack: string(pe.Stack),
				}
			}
		}
	}
	return out, err
}

// Compare runs the workload under all three protocols with otherwise
// identical configuration and returns the results keyed by protocol, in
// the paper's order (Baseline, AD, LS). The protocols run concurrently;
// see CompareContext for cancellation and parallelism control.
func Compare(cfg Config, workloadName string, scale Scale) (map[Protocol]*Result, error) {
	return CompareContext(context.Background(), cfg, workloadName, scale, RunOptions{})
}

// ComparePoints returns the points of a protocol comparison: cfg under
// every protocol, in Protocols() order, labeled "workload/protocol".
// It is the counterpart of SweepPoints for CompareContext and the lsnumad
// daemon's compare jobs.
func ComparePoints(cfg Config, workloadName string, scale Scale) []Point {
	protos := Protocols()
	points := make([]Point, len(protos))
	for i, p := range protos {
		c := cfg
		c.Protocol = p
		points[i] = Point{Label: fmt.Sprintf("%s/%s", workloadName, p), Config: c, Workload: workloadName, Scale: scale}
	}
	return points
}

// CompareContext is Compare with a cancellation context and explicit run
// options. Results are independent per protocol and bit-identical to
// serial Run calls (the simulations share no state).
func CompareContext(ctx context.Context, cfg Config, workloadName string, scale Scale, opt RunOptions) (map[Protocol]*Result, error) {
	results, err := RunAll(ctx, ComparePoints(cfg, workloadName, scale), opt)
	if err != nil {
		// Preserve Compare's historical contract: any failure fails the
		// comparison (a protocol comparison with a missing column is
		// useless), reporting the first failed point's error.
		for _, r := range results {
			if r.Err != nil {
				return nil, r.Err
			}
		}
		return nil, err
	}
	out := make(map[Protocol]*Result, len(results))
	for _, r := range results {
		out[r.Config.Protocol] = r.Result
	}
	return out, nil
}
