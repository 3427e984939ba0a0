package noc

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// cancelWorkload builds a saturated all-to-all storm large enough that a
// full replay takes a macroscopic wall clock, so canceling mid-run is
// observable.
func cancelWorkload(t testing.TB, sim *Simulator, endpoints, spikesPerSrc int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for src := 0; src < endpoints; src++ {
		for s := 0; s < spikesPerSrc; s++ {
			mask := NewMask(endpoints)
			for d := 0; d < endpoints; d++ {
				if d != src && rng.Intn(3) == 0 {
					mask.Set(d)
				}
			}
			if mask.Empty() {
				mask.Set((src + 1) % endpoints)
			}
			p := Packet{SrcNeuron: int32(src), Src: src, Dst: mask, CreatedMs: int64(s)}
			if err := sim.Inject(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	sim, err := NewSimulator(DefaultConfig(Mesh, 9))
	if err != nil {
		t.Fatal(err)
	}
	mask := NewMask(9)
	mask.Set(3)
	if err := sim.Inject(Packet{Src: 0, Dst: mask}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim.SetContext(ctx)
	if _, err := sim.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with pre-canceled context = %v, want context.Canceled", err)
	}
	// The aborted run still needs a Reset, like any completed one.
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run without Reset accepted")
	}
	sim.Reset()
	if err := sim.Inject(Packet{Src: 0, Dst: mask}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("Run after Reset (context cleared): %v", err)
	}
}

// TestRunCancelMidReplay cancels a heavy replay shortly after it starts
// and asserts Run observes the cancellation far before the uncanceled
// wall clock — the event loop polls every cancelCheckEvery iterations, so
// the latency bound is one event batch. It then pins that Reset fully
// recovers the canceled simulator: the rerun is bit-identical to an
// untouched one.
func TestRunCancelMidReplay(t *testing.T) {
	const endpoints = 36
	const spikes = 400
	cfg := DefaultConfig(Mesh, endpoints)

	// Uncanceled baseline for the wall clock and the reference stats.
	base, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancelWorkload(t, base, endpoints, spikes)
	start := time.Now()
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)

	sim := base.Fork()
	cancelWorkload(t, sim, endpoints, spikes)
	ctx, cancel := context.WithCancel(context.Background())
	sim.SetContext(ctx)
	delay := baseline / 20
	timer := time.AfterFunc(delay, cancel)
	defer timer.Stop()
	start = time.Now()
	_, err = sim.Run()
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		// On a machine fast enough to finish inside the delay there is
		// nothing to observe; skip rather than flake.
		if err == nil && baseline < 10*time.Millisecond {
			t.Skipf("replay finished in %v before the %v cancel fired", elapsed, delay)
		}
		t.Fatalf("canceled Run = %v, want context.Canceled", err)
	}
	if elapsed > baseline/2+50*time.Millisecond {
		t.Fatalf("cancellation latency %v too close to the full replay %v", elapsed, baseline)
	}

	// Reset recovers the canceled simulator completely.
	sim.Reset()
	cancelWorkload(t, sim, endpoints, spikes)
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats after cancel+Reset = %+v, want %+v", got.Stats, want.Stats)
	}
}
