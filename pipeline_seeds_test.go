package snnmap

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestRunSeedsMatchesRun is RunSeeds' identity guarantee: sweeping the
// re-seeded technique over pooled replay contexts (simulator, injection
// scratch and accumulator reused across seeds) must produce reports
// deep-equal to re-seeding the technique and running each seed through
// Run, in seed order, at several worker counts.
func TestRunSeedsMatchesRun(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 4, DurationMs: 150}, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 16)
	seeds := []int64{11, 7, 3, 5, 2, 13, 1}
	psoCfg := PSOConfig{SwarmSize: 8, Iterations: 8, Seed: 99, Workers: 1}

	ref, err := NewPipeline(app, arch, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pso := NewPSO(psoCfg)
	want := make([]*Report, len(seeds))
	for i, s := range seeds {
		if want[i], err = ref.Run(context.Background(), pso.Reseed(s)); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2, 4, 16} {
		pl, err := NewPipeline(app, arch, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.RunSeeds(context.Background(), NewPSO(psoCfg), seeds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: RunSeeds reports differ from per-seed Run", workers)
		}
		// The sweep must stay warm-session reentrant.
		again, err := pl.RunSeeds(context.Background(), NewPSO(psoCfg), seeds)
		if err != nil {
			t.Fatalf("workers=%d rerun: %v", workers, err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("workers=%d: second sweep diverged (state leaked across pooled replays)", workers)
		}
	}

	if _, err := ref.RunSeeds(context.Background(), Pacman, seeds); err == nil {
		t.Fatal("RunSeeds must reject deterministic partitioners")
	}
	if out, err := ref.RunSeeds(context.Background(), NewPSO(psoCfg), nil); err != nil || len(out) != 0 {
		t.Fatalf("empty seed list: out=%v err=%v", out, err)
	}
}

// TestRunSeedsKeepsTrace checks that WithTrace reaches every report of a
// seed sweep, each with its own complete delivery trace.
func TestRunSeedsKeepsTrace(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 4, DurationMs: 120}, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 16)
	pl, err := NewPipeline(app, arch, WithTrace(true), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pso := NewPSO(PSOConfig{SwarmSize: 6, Iterations: 6, Seed: 1, Workers: 1})
	seeds := []int64{1, 2, 3}
	reports, err := pl.RunSeeds(context.Background(), pso, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if int64(len(rep.Deliveries)) != rep.NoC.Delivered {
			t.Fatalf("seed %d: retained trace has %d deliveries, stats say %d",
				seeds[i], len(rep.Deliveries), rep.NoC.Delivered)
		}
	}
}

// explodingSeeded is a Seeded partitioner whose every reseed fails,
// carrying its seed in the error for aggregation checks.
type explodingSeeded struct{ seed int64 }

func (e explodingSeeded) Name() string { return "exploder" }
func (e explodingSeeded) Partition(*Problem) (Assignment, error) {
	return nil, fmt.Errorf("seed %d exploded", e.seed)
}
func (e explodingSeeded) Reseed(seed int64) Partitioner { return explodingSeeded{seed} }

func TestRunSeedsAggregatesAllFailures(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 2, DurationMs: 100}, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 8)
	pl, err := NewPipeline(app, arch, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = pl.RunSeeds(context.Background(), explodingSeeded{}, []int64{4, 5, 6})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	for _, want := range []string{"seed 4 exploded", "seed 5 exploded", "seed 6 exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error misses %q: %v", want, err)
		}
	}
}
