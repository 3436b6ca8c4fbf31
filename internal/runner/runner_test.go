package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAllJobsComplete(t *testing.T) {
	const n = 50
	var done [n]atomic.Bool
	errs, err := RunEach(context.Background(), n, 8, 0, func(_ context.Context, i int) error {
		done[i].Store(true)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(errs) != n {
		t.Fatalf("got %d error slots, want %d", len(errs), n)
	}
	for i := range done {
		if !done[i].Load() {
			t.Errorf("job %d never ran", i)
		}
	}
}

// TestErrorAggregation: failing jobs are reported at their index and in
// the joined error, while every other job still completes.
func TestErrorAggregation(t *testing.T) {
	const n = 20
	boom := errors.New("boom")
	var ran atomic.Int32
	errs, err := RunEach(context.Background(), n, 4, 0, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 3 || i == 17 {
			return fmt.Errorf("point %d: %w", i, boom)
		}
		return nil
	})
	if got := ran.Load(); got != n {
		t.Errorf("ran %d jobs, want %d (one failure must not abort the rest)", got, n)
	}
	if err == nil {
		t.Fatal("want aggregated error, got nil")
	}
	if !errors.Is(err, boom) {
		t.Errorf("aggregated error does not wrap the job error: %v", err)
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Errorf("aggregated error contains no *JobError: %v", err)
	}
	for i, e := range errs {
		wantErr := i == 3 || i == 17
		if (e != nil) != wantErr {
			t.Errorf("errs[%d] = %v, want error: %v", i, e, wantErr)
		}
	}
}

// TestPanicIsolation: a panicking job is reported as that job's error.
func TestPanicIsolation(t *testing.T) {
	errs, err := RunEach(context.Background(), 3, 2, 0, func(_ context.Context, i int) error {
		if i == 1 {
			panic("simulated engine bug")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error from panicking job")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy jobs failed: %v %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("panicking job reported no error")
	}
}

// TestPanicStackCapture: a panicking job's error is a *PanicError that
// carries the panic value and the goroutine stack of the panic site, so
// sweep diagnostics can point at the faulty frame instead of just saying
// "panic".
func TestPanicStackCapture(t *testing.T) {
	errs, _ := RunEach(context.Background(), 1, 1, 0, func(_ context.Context, i int) error {
		panicForStackCapture()
		return nil
	})
	var pe *PanicError
	if !errors.As(errs[0], &pe) {
		t.Fatalf("job error = %v (%T), want *PanicError", errs[0], errs[0])
	}
	if pe.Value != "simulated engine bug" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if !strings.Contains(errs[0].Error(), "panic: simulated engine bug") {
		t.Errorf("error text %q lost the panic value", errs[0].Error())
	}
	if !strings.Contains(string(pe.Stack), "panicForStackCapture") {
		t.Errorf("captured stack does not contain the panic site:\n%s", pe.Stack)
	}
}

// panicForStackCapture panics from a named function so the test can
// assert the frame appears in the captured stack.
func panicForStackCapture() {
	panic("simulated engine bug")
}

// TestCancellationMidSweep: once the context is cancelled, unstarted jobs
// are skipped and recorded as the context error.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 32
	var started atomic.Int32
	errs, err := RunEach(ctx, n, 2, 0, func(ctx context.Context, i int) error {
		if started.Add(1) == 2 {
			cancel() // cancel while the first jobs are still running
		}
		<-ctx.Done() // hold the first workers until cancellation propagates
		return nil
	})
	if err == nil {
		t.Fatal("want aggregated cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("aggregated error should wrap context.Canceled: %v", err)
	}
	var cancelled, completed int
	for _, e := range errs {
		switch {
		case e == nil:
			completed++
		case errors.Is(e, context.Canceled):
			cancelled++
		default:
			t.Errorf("unexpected error: %v", e)
		}
	}
	if cancelled == 0 {
		t.Error("no job recorded context.Canceled")
	}
	if completed+cancelled != n {
		t.Errorf("completed %d + cancelled %d != %d", completed, cancelled, n)
	}
	// The two in-flight jobs may or may not observe the cancellation, but
	// nothing after them may start.
	if got := started.Load(); got > 3 {
		t.Errorf("%d jobs started after cancellation, want <= 3", got)
	}
}

// TestWorkerPoolBounding: at most `parallelism` jobs run concurrently.
func TestWorkerPoolBounding(t *testing.T) {
	const n, parallelism = 40, 3
	var cur, max atomic.Int32
	_, err := RunEach(context.Background(), n, parallelism, 0, func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > parallelism {
		t.Errorf("observed %d concurrent jobs, bound is %d", got, parallelism)
	}
}

// TestParallelismDefaults: parallelism <= 0 falls back to GOMAXPROCS and
// still completes everything.
func TestParallelismDefaults(t *testing.T) {
	for _, p := range []int{0, -1, 1000} {
		errs, err := RunEach(context.Background(), 5, p, 0, func(_ context.Context, i int) error { return nil })
		if err != nil || len(errs) != 5 {
			t.Errorf("parallelism=%d: errs=%v err=%v", p, errs, err)
		}
	}
}

// TestConcurrencyOverlap: with blocking jobs, the pool genuinely overlaps
// them — 4 jobs that each wait on the others' arrival deadlock unless at
// least 4 run at once. This is the wall-clock-speedup mechanism the
// parallel sweep relies on, demonstrated without timing assumptions.
func TestConcurrencyOverlap(t *testing.T) {
	const n = 4
	var wg sync.WaitGroup
	wg.Add(n)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	_, err := RunEach(context.Background(), n, n, 0, func(_ context.Context, i int) error {
		wg.Done()
		select {
		case <-done:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("jobs did not overlap")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunEachDeadline: RunEach's per-job deadline cancels each job's
// context independently — one job that outlives its deadline observes the
// expiry while its siblings run to completion, and the parent context
// stays alive throughout.
func TestRunEachDeadline(t *testing.T) {
	ctx := context.Background()
	errs, err := RunEach(ctx, 3, 3, 20*time.Millisecond, func(jctx context.Context, i int) error {
		if i == 1 {
			<-jctx.Done() // an observant job returns its context's error
			return jctx.Err()
		}
		return nil
	})
	if err == nil {
		t.Fatal("deadline expiry not aggregated")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("siblings infected by job 1's deadline: %v %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], context.DeadlineExceeded) {
		t.Errorf("job 1 error = %v, want deadline exceeded", errs[1])
	}
	if ctx.Err() != nil {
		t.Error("per-job deadline cancelled the parent context")
	}
}

// TestRunEachZeroIsRun: a zero per-job deadline must impose no limit.
func TestRunEachZeroIsRun(t *testing.T) {
	errs, err := RunEach(context.Background(), 2, 2, 0, func(jctx context.Context, i int) error {
		if _, ok := jctx.Deadline(); ok {
			return errors.New("zero deadline still set a deadline")
		}
		return nil
	})
	if err != nil {
		t.Fatal(errs)
	}
}
