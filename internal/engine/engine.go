// Package engine is the concurrent experiment engine underneath every
// sweep in this reproduction. The paper's evaluation (Fig. 5, Table II,
// Fig. 6–7 and the ablations) is a grid of independent mapping runs —
// applications × architectures × partitioning techniques — and related
// work (Balaji et al. 2019, Balaji & Das 2020) frames mapping as a
// compilation pipeline of independent, schedulable stages. The engine
// makes that structure explicit: a sweep is a slice of jobs executed on a
// bounded worker pool, with results returned in deterministic job order
// and per-job error capture instead of fail-fast.
//
// Determinism contract: the engine never reorders results — Sweep's
// result slice is indexed exactly like its job slice — so any job
// function that is itself deterministic for a fixed seed produces
// bit-identical sweeps at every worker count.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Config bounds a sweep's concurrency.
type Config struct {
	// Workers is the worker-pool size. 0 (or negative) selects
	// runtime.GOMAXPROCS(0); 1 executes jobs strictly sequentially in
	// job order.
	Workers int
	// Timeout bounds each job's wall clock; 0 means no per-job limit.
	// A timed-out job yields a Result whose Err wraps
	// context.DeadlineExceeded; the remaining jobs still run.
	Timeout time.Duration
}

// Size resolves the worker-pool size a sweep with this configuration
// runs on: Workers when positive, runtime.GOMAXPROCS(0) otherwise.
func (c Config) Size() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is the outcome of one job: its index in the job slice, the
// value produced, the error captured (nil on success), and the job's
// wall clock split into pool queue-wait and run time.
type Result[R any] struct {
	Index int
	Value R
	Err   error
	// Wait is how long the job sat in the sweep's dispatch queue before
	// a worker picked it up — the pool-contention component of latency,
	// distinct from the job's own run time below.
	Wait time.Duration
	// Elapsed is the job's wall clock once running (including a
	// timed-out job's time until abandonment).
	Elapsed time.Duration
}

// Sweep executes fn over every job on a bounded worker pool and returns
// the results in job order. Errors (including panics, which are
// recovered and converted) are captured per job rather than aborting the
// sweep; jobs never dispatched because ctx was cancelled report ctx's
// error. A nil ctx is treated as context.Background().
func Sweep[J, R any](ctx context.Context, cfg Config, jobs []J, fn func(context.Context, J) (R, error)) []Result[R] {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result[R], len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := cfg.Size()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	sweepStart := time.Now()
	if workers == 1 {
		// Sequential fast path: strict job order on the calling
		// goroutine (runJob itself is also inline unless a timeout or
		// cancelable context requires an interruptible goroutine).
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				results[i] = Result[R]{Index: i, Err: fmt.Errorf("engine: job %d not started: %w", i, err)}
				continue
			}
			results[i] = runJob(ctx, cfg, sweepStart, i, jobs[i], fn)
		}
		return results
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runJob(ctx, cfg, sweepStart, i, jobs[i], fn)
			}
		}()
	}
	dispatched := len(jobs)
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			dispatched = i
		}
		if dispatched != len(jobs) {
			break
		}
	}
	close(idx)
	wg.Wait()
	for i := dispatched; i < len(jobs); i++ {
		results[i] = Result[R]{Index: i, Err: fmt.Errorf("engine: job %d not started: %w", i, ctx.Err())}
	}
	return results
}

// runJob executes one job under the per-job timeout, converting panics
// to errors. Without a timeout (and with a non-cancelable context) the
// job runs inline on the calling worker — no extra goroutine. With one,
// the job runs on its own goroutine so it can be abandoned on deadline
// (the buffered channel lets it still finish and exit); job functions
// that honor their context stop promptly.
func runJob[J, R any](ctx context.Context, cfg Config, sweepStart time.Time, index int, job J, fn func(context.Context, J) (R, error)) Result[R] {
	start := time.Now()
	wait := start.Sub(sweepStart)
	jctx := ctx
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	if jctx.Done() == nil {
		// Nothing can interrupt the job: run it inline.
		r := invoke(jctx, index, job, fn)
		r.Wait = wait
		r.Elapsed = time.Since(start)
		return r
	}
	done := make(chan Result[R], 1)
	go func() { done <- invoke(jctx, index, job, fn) }()
	select {
	case r := <-done:
		r.Wait = wait
		r.Elapsed = time.Since(start)
		return r
	case <-jctx.Done():
		return Result[R]{
			Index:   index,
			Err:     fmt.Errorf("engine: job %d: %w", index, jctx.Err()),
			Wait:    wait,
			Elapsed: time.Since(start),
		}
	}
}

// invoke calls fn, converting a panic into a captured error.
func invoke[J, R any](jctx context.Context, index int, job J, fn func(context.Context, J) (R, error)) (res Result[R]) {
	defer func() {
		if r := recover(); r != nil {
			res = Result[R]{Index: index, Err: fmt.Errorf("engine: job %d panicked: %v", index, r)}
		}
	}()
	v, err := fn(jctx, job)
	return Result[R]{Index: index, Value: v, Err: err}
}

// Values unwraps a result slice into its values, returning the first
// captured error verbatim if any job failed (job functions are expected
// to wrap their errors with job identity; engine-generated errors
// already carry the job index).
func Values[R any](results []Result[R]) ([]R, error) {
	out := make([]R, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Value
	}
	return out, nil
}

// FirstErr returns the first captured error of a sweep, or nil.
func FirstErr[R any](results []Result[R]) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
