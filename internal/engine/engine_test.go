package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSweepPreservesJobOrder(t *testing.T) {
	jobs := make([]int, 64)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64} {
		results := Sweep(context.Background(), Config{Workers: workers}, jobs,
			func(_ context.Context, j int) (int, error) {
				// Stagger completion so later jobs often finish first.
				time.Sleep(time.Duration((64-j)%5) * time.Millisecond)
				return j * j, nil
			})
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: job %d: %v", workers, i, r.Err)
			}
			if r.Value != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r.Value, i*i)
			}
			if r.Index != i {
				t.Fatalf("workers=%d: result %d carries index %d", workers, i, r.Index)
			}
		}
	}
}

func TestSweepCapturesErrorsWithoutAborting(t *testing.T) {
	wantErr := errors.New("boom")
	jobs := []int{0, 1, 2, 3, 4, 5}
	var ran atomic.Int64
	results := Sweep(context.Background(), Config{Workers: 3}, jobs,
		func(_ context.Context, j int) (int, error) {
			ran.Add(1)
			if j%2 == 1 {
				return 0, fmt.Errorf("job %d: %w", j, wantErr)
			}
			return j, nil
		})
	if got := ran.Load(); got != int64(len(jobs)) {
		t.Fatalf("only %d of %d jobs ran — sweep must not fail fast", got, len(jobs))
	}
	for i, r := range results {
		if i%2 == 1 {
			if !errors.Is(r.Err, wantErr) {
				t.Fatalf("job %d: error %v not captured", i, r.Err)
			}
		} else if r.Err != nil || r.Value != i {
			t.Fatalf("job %d: (%d, %v), want (%d, nil)", i, r.Value, r.Err, i)
		}
	}
}

func TestSweepRecoversPanics(t *testing.T) {
	results := Sweep(context.Background(), Config{Workers: 2}, []int{0, 1, 2},
		func(_ context.Context, j int) (int, error) {
			if j == 1 {
				panic("kaboom")
			}
			return j, nil
		})
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", results[1].Err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs affected: %v, %v", results[0].Err, results[2].Err)
	}
}

func TestSweepPerJobTimeout(t *testing.T) {
	results := Sweep(context.Background(), Config{Workers: 2, Timeout: 20 * time.Millisecond},
		[]int{0, 1},
		func(ctx context.Context, j int) (int, error) {
			if j == 0 {
				<-ctx.Done() // honor the deadline
				return 0, ctx.Err()
			}
			return j, nil
		})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("timed-out job error = %v", results[0].Err)
	}
	if results[1].Err != nil || results[1].Value != 1 {
		t.Fatalf("sibling job affected: %+v", results[1])
	}
}

func TestSweepTimeoutAbandonsStuckJob(t *testing.T) {
	release := make(chan struct{})
	start := time.Now()
	results := Sweep(context.Background(), Config{Workers: 1, Timeout: 15 * time.Millisecond},
		[]int{0},
		func(_ context.Context, _ int) (int, error) {
			<-release // ignores its context entirely
			return 0, nil
		})
	close(release)
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("error = %v", results[0].Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sweep blocked on a stuck job for %v", elapsed)
	}
}

func TestSweepContextCancelSkipsRemainingJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]int, 32)
	var started atomic.Int64
	results := Sweep(ctx, Config{Workers: 2}, jobs,
		func(_ context.Context, _ int) (int, error) {
			if started.Add(1) == 4 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return 0, nil
		})
	var skipped int
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("cancellation did not skip any queued jobs")
	}
	if started.Load() == int64(len(jobs)) {
		t.Fatal("every job was dispatched despite cancellation")
	}
}

func TestSweepSequentialCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Sweep(ctx, Config{Workers: 1}, []int{0, 1},
		func(_ context.Context, j int) (int, error) { return j, nil })
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d ran under a cancelled context: %+v", i, r)
		}
	}
}

func TestSweepNilContextAndEmptyJobs(t *testing.T) {
	if got := Sweep(nil, Config{}, nil, func(_ context.Context, j int) (int, error) { return j, nil }); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
	results := Sweep(nil, Config{}, []int{7},
		func(_ context.Context, j int) (int, error) { return j, nil })
	if results[0].Err != nil || results[0].Value != 7 {
		t.Fatalf("nil-context sweep: %+v", results[0])
	}
	if results[0].Elapsed < 0 {
		t.Fatal("elapsed not recorded")
	}
}

func TestConfigWorkerDefaults(t *testing.T) {
	if (Config{}).Size() < 1 {
		t.Fatal("default workers < 1")
	}
	if (Config{Workers: -3}).Size() < 1 {
		t.Fatal("negative workers not defaulted")
	}
	if got := (Config{Workers: 5}).Size(); got != 5 {
		t.Fatalf("workers = %d, want 5", got)
	}
}
