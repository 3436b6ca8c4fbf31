// Package runner executes independent jobs concurrently on a bounded
// worker pool. It is the machinery behind the public lsnuma.RunAll /
// lsnuma.Sweep APIs: the paper's evaluation is a large matrix of
// independent (config, protocol, workload) simulation points, and every
// point is a self-contained Machine, so the matrix parallelizes perfectly
// across cores.
//
// The runner guarantees:
//
//   - deterministic result ordering: job i's outcome is reported at
//     index i regardless of completion order;
//   - per-job error isolation: one failing job does not abort the rest;
//   - bounded parallelism: at most `parallelism` jobs run at once;
//   - cancellation: once ctx is done, unstarted jobs are skipped and
//     recorded as ctx.Err() (the runner never interrupts a running job
//     itself, but jobs receive a context they can observe mid-run);
//   - per-job deadlines: RunEach bounds each job's wall-clock runtime
//     independently of ctx's own deadline.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// JobError wraps the failure of one job with its index.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a job panic converted into an error, with the stack
// captured on the panicking goroutine. Callers retrieve it (and the
// stack) with errors.As for crash diagnostics.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// RunEach executes jobs 0..n-1 on at most `parallelism` concurrent
// workers (<= 0 selects runtime.GOMAXPROCS(0)) and returns the per-job
// errors at their job's index (nil for jobs that succeeded). The second
// return value aggregates all failures via errors.Join, each wrapped in a
// *JobError; it is nil when every job succeeded.
//
// All jobs run even if some fail. If ctx is cancelled, jobs not yet
// started are skipped and their slot records ctx.Err().
//
// When `each` is positive, every job receives a context that is
// cancelled `each` after the job starts, independent of ctx's own
// lifetime; zero imposes no per-job deadline. A job that outlives its
// deadline is expected to observe its context and return the context's
// error; the runner itself never kills a job.
func RunEach(ctx context.Context, n, parallelism int, each time.Duration, job func(ctx context.Context, i int) error) ([]error, error) {
	errs := make([]error, n)
	if n == 0 {
		return errs, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				jctx, cancel := ctx, func() {}
				if each > 0 {
					jctx, cancel = context.WithTimeout(ctx, each)
				}
				errs[i] = safeRun(jctx, i, job)
				cancel()
			}
		}()
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()

	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &JobError{Index: i, Err: err})
		}
	}
	return errs, errors.Join(failed...)
}

// safeRun invokes one job, converting a panic into a *PanicError — stack
// included — so a bug in one simulation point cannot take down the whole
// sweep and still leaves enough to debug it.
func safeRun(ctx context.Context, i int, job func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return job(ctx, i)
}
