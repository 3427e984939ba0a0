package snnmap

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/hardware"
)

// TestPipelineWarmMatchesCold is the warm-session guarantee: for every
// registered partitioner and every AER packetization mode, a warm
// Pipeline session produces a Report deep-equal (bit-for-bit, floats
// included) to a single-use session built for that one run. Each warm
// session additionally serves every technique twice, so run-to-run state
// leakage through the reused simulator would be caught as well.
func TestPipelineWarmMatchesCold(t *testing.T) {
	app, err := BuildApp("HW", AppConfig{Seed: 1, DurationMs: 300})
	if err != nil {
		t.Fatal(err)
	}
	base := ForNeurons(app.Graph.Neurons, 32)
	spec := PartitionerSpec{Seed: 1, SwarmSize: 12, Iterations: 12, Workers: 1}

	modes := []hardware.AERMode{PerSynapse, PerCrossbar, MulticastAER}
	rounds := 2
	if testing.Short() {
		// The full matrix (3 modes × 8 partitioners × 2 rounds) is the
		// acceptance gate and runs in the default suite; the short/race
		// suite keeps one representative mode and a single round.
		modes = modes[:1]
		rounds = 1
	}
	for _, mode := range modes {
		arch := base
		arch.AER = mode
		pl, err := NewPipeline(app, arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range PartitionerNames() {
			for round := 0; round < rounds; round++ {
				pt, err := NewPartitioner(name, spec)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := runOnce(app, arch, pt)
				if err != nil {
					t.Fatalf("%s/%s: cold run: %v", mode, name, err)
				}
				warm, err := pl.Run(context.Background(), pt)
				if err != nil {
					t.Fatalf("%s/%s: pipeline Run: %v", mode, name, err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("%s/%s round %d: warm report differs from cold report\ncold: %+v\nwarm: %+v",
						mode, name, round, cold, warm)
				}
			}
		}
	}
}

// TestPipelineConcurrentCompare exercises the simulator pool: a parallel
// Compare over all registered techniques must match the sequential sweep
// row for row.
func TestPipelineConcurrentCompare(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 3, DurationMs: 250}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 64)
	spec := PartitionerSpec{Seed: 1, SwarmSize: 10, Iterations: 10, Workers: 1}
	var techniques []Partitioner
	for _, name := range PartitionerNames() {
		pt, err := NewPartitioner(name, spec)
		if err != nil {
			t.Fatal(err)
		}
		techniques = append(techniques, pt)
	}

	seqPl, err := NewPipeline(app, arch, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := seqPl.Compare(context.Background(), techniques)
	if err != nil {
		t.Fatal(err)
	}
	parPl, err := NewPipeline(app, arch, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	par, err := parPl.Compare(context.Background(), techniques)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel Compare differs from sequential Compare")
	}
}

// failingPartitioner always errors, for error-aggregation tests.
type failingPartitioner struct{ name string }

func (f failingPartitioner) Name() string { return f.name }
func (f failingPartitioner) Partition(*Problem) (Assignment, error) {
	return nil, errors.New(f.name + " exploded")
}

func TestCompareAggregatesAllFailures(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 2, DurationMs: 100}, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 8)
	techniques := []Partitioner{
		failingPartitioner{"boom-a"},
		Pacman,
		failingPartitioner{"boom-b"},
	}
	pl, err := NewPipeline(app, arch, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = pl.Compare(context.Background(), techniques); err == nil {
		t.Fatal("expected aggregated error")
	}
	for _, want := range []string{"boom-a exploded", "boom-b exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error misses %q: %v", want, err)
		}
	}
}

func TestObserverSeesAllStages(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 5, DurationMs: 100}, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 8)
	var mu sync.Mutex
	var events []StageEvent
	pl, err := NewPipeline(app, arch, WithObserver(ObserverFunc(func(ev StageEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(context.Background(), Pacman); err != nil {
		t.Fatal(err)
	}
	want := []Stage{StagePartition, StagePlace, StageSimulate, StageAnalyze}
	if len(events) != len(want) {
		t.Fatalf("observed %d events, want %d", len(events), len(want))
	}
	for i, ev := range events {
		if ev.Stage != want[i] {
			t.Fatalf("event %d stage = %s, want %s", i, ev.Stage, want[i])
		}
		if ev.Technique != "PACMAN" {
			t.Fatalf("event %d technique = %q", i, ev.Technique)
		}
	}
	if events[0].Partition == nil || events[1].Placement == nil || events[2].NoC == nil || events[3].Metrics == nil {
		t.Fatal("stage payloads not populated")
	}
}

func TestPipelineHonorsCancelledContext(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 7, DurationMs: 100}, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(app, ForNeurons(app.Graph.Neurons, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.Run(ctx, Pacman); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v", err)
	}
}

func TestWithTraceKeepsDeliveries(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 2, DurationMs: 300}, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 16)
	pl, err := NewPipeline(app, arch, WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Run(context.Background(), Pacman)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rep.Deliveries)) != rep.NoC.Delivered {
		t.Fatalf("trace length %d != delivered %d", len(rep.Deliveries), rep.NoC.Delivered)
	}
}

// TestPipelineStreamingMatchesTrace pins keeping the trace as a pure tee:
// a default session streams deliveries from the simulator's sink into the
// metrics accumulator and never builds the trace, while a WithTrace
// session's sink also appends each delivery to the report's trace. Every
// Report field except Deliveries must be bit-identical across AER
// packetization modes and both deterministic baselines.
func TestPipelineStreamingMatchesTrace(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 11, DurationMs: 200}, 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	base := ForNeurons(app.Graph.Neurons, 16)
	for _, mode := range []hardware.AERMode{PerSynapse, PerCrossbar, MulticastAER} {
		arch := base
		arch.AER = mode
		str, err := NewPipeline(app, arch)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := NewPipeline(app, arch, WithTrace(true))
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range []Partitioner{GreedyPartitioner, Pacman} {
			got, err := str.Run(context.Background(), pt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := traced.Run(context.Background(), pt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Deliveries != nil {
				t.Fatalf("AER %v / %s: default run retained a trace (%d deliveries)", mode, pt.Name(), len(got.Deliveries))
			}
			if int64(len(want.Deliveries)) != want.NoC.Delivered || want.NoC.Delivered == 0 {
				t.Fatalf("AER %v / %s: traced run kept %d of %d deliveries", mode, pt.Name(), len(want.Deliveries), want.NoC.Delivered)
			}
			want.Deliveries = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("AER %v / %s: streaming report diverges from the trace oracle:\n got %+v\nwant %+v",
					mode, pt.Name(), got, want)
			}
		}
	}
}

// TestPipelineRunAllocBudgetWarm is the warm replay's allocation
// contract: once a session is built, a Pipeline.Run of greedy on a
// 512-neuron modular app over the tree interconnect allocates a small,
// traffic-independent amount — no packet list, no up-front flights, no
// global-synapse list, and no fresh injection scratch or metrics
// accumulator (both live in the pooled replay context). Both budgets are the measured value plus slack
// for the runtime (a sync.Pool miss after a GC re-forks a simulator).
func TestPipelineRunAllocBudgetWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured in the full suite")
	}
	app, err := BuildApp("gen:modular:n=512", AppConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := NewArch("tree", app.Graph, ArchSpec{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := pl.Run(context.Background(), GreedyPartitioner); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the simulator pool and the session's lazy state
	// Collect now so a GC inside the measured runs (which could empty the
	// simulator pool) is unlikely.
	runtime.GC()
	run()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytesPerRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm Pipeline.Run: %.0f allocs, %.0f bytes per run", allocs, bytesPerRun)
	// Measured on linux/amd64, go1.24: 27 allocs and 17,680 bytes per run.
	// The slack (13 allocs, ~30 KiB) covers one pool miss in the measured
	// runs: a re-forked simulator plus its scratch and stream table grown
	// from empty, averaged over the runs.
	const maxAllocs, maxBytes = 40, 48 << 10
	if allocs > maxAllocs {
		t.Errorf("warm Pipeline.Run allocates %.0f objects per run, budget %d", allocs, maxAllocs)
	}
	if bytesPerRun > maxBytes {
		t.Errorf("warm Pipeline.Run allocates %.0f bytes per run, budget %d", bytesPerRun, maxBytes)
	}
}

// buildSessionDR is the session build of the paper's largest quick
// workload: digit recognition characterized for the quick 250 ms, then a
// warm session on the 4-crossbar quad architecture.
func buildSessionDR(tb testing.TB) *Pipeline {
	tb.Helper()
	app, err := apps.DigitRecognition(AppConfig{Seed: 1, DurationMs: 250})
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := NewPipeline(app, QuadArch(app.Graph))
	if err != nil {
		tb.Fatal(err)
	}
	return pl
}

// TestSessionBuildAllocBudget is the allocation contract of a session
// build (buildSessionDR): the network, its characterization, the spike
// graph, its adjacencies and the problem instance. Both budgets are the
// measured value plus slack.
func TestSessionBuildAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured in the full suite")
	}
	build := func() { buildSessionDR(t) }
	const runs = 3
	allocs := testing.AllocsPerRun(runs, build)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytesPerRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("digit-recognition session build: %.0f allocs, %.0f bytes", allocs, bytesPerRun)
	// Measured on linux/amd64, go1.24: 3,071 allocs and 13,654,109 bytes
	// (with the graph's own synapse list beside the CSR: 3,077 and
	// 22,408,469; before each layout was sized once: 3,114 and
	// 54,178,584). The slack is about 4% of each.
	const maxAllocs, maxBytes = 3200, 14_200_000
	if allocs > maxAllocs {
		t.Errorf("session build allocates %.0f objects, budget %d", allocs, maxAllocs)
	}
	if bytesPerRun > maxBytes {
		t.Errorf("session build allocates %.0f bytes, budget %d", bytesPerRun, maxBytes)
	}
}

// TestPartitionerAllocBudget is the per-stage allocation contract of the
// partitioners: one Partition call of greedy, kl, hypercut, pso, sa and
// ga on a 512-neuron modular app sized for the tree interconnect. Each
// budget is the measured value plus slack, so a regression names the
// stage that broke it.
func TestPartitionerAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured in the full suite")
	}
	app, err := BuildApp("gen:modular:n=512", AppConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := NewArch("tree", app.Graph, ArchSpec{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(app.Graph, arch.Crossbars, arch.CrossbarSize)
	if err != nil {
		t.Fatal(err)
	}
	// Measured on linux/amd64, go1.24 (allocs, bytes per call): greedy
	// 5 and 12,352; kl 9 and 32,960 (the n×C affinity table is 16 KiB of
	// it); hypercut 20 and 68,218. The stochastic ones run the quick
	// experiments' 30×30 budget on one worker: pso 260 and 710,029 (per
	// particle its velocity matrix, positions, buffers and RNG, plus the
	// 16 KiB sigmoid table); sa 8 and 17,792; ga 155 and 378,048 (the
	// random initial population, a second set of assignment buffers the
	// generations alternate with, and one load vector).
	quick := PartitionerSpec{SwarmSize: 30, Iterations: 30, Workers: 1}
	for _, tc := range []struct {
		name                string
		spec                PartitionerSpec
		maxAllocs, maxBytes float64
	}{
		{"greedy", PartitionerSpec{}, 8, 16 << 10},
		{"kl", PartitionerSpec{}, 12, 40 << 10},
		{"hypercut", PartitionerSpec{}, 24, 80 << 10},
		{"pso", quick, 300, 800 << 10},
		{"sa", PartitionerSpec{}, 12, 24 << 10},
		{"ga", quick, 180, 420 << 10},
	} {
		pt, err := NewPartitioner(tc.name, tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := pt.Partition(p); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the graph's lazy hypergraph
		const runs = 10
		allocs := testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytesPerRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocs, %.0f bytes per Partition", tc.name, allocs, bytesPerRun)
		if allocs > tc.maxAllocs {
			t.Errorf("%s allocates %.0f objects per Partition, budget %.0f", tc.name, allocs, tc.maxAllocs)
		}
		if bytesPerRun > tc.maxBytes {
			t.Errorf("%s allocates %.0f bytes per Partition, budget %.0f", tc.name, bytesPerRun, tc.maxBytes)
		}
	}
}
