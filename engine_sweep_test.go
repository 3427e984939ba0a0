package snnmap

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hardware"
	"repro/internal/partition"
)

// aerExpectations derives the Eq. 7–8 injected-packet counts of every AER
// mode directly from the spike graph and the assignment, independently of
// the simulator's injection loop:
//
//	perSynapse  = Σ_i |T_i| · (# crossing synapses of i)   — the fitness F
//	perCrossbar = Σ_i |T_i| · (# distinct remote crossbars of i)
//	multicast   = Σ_i |T_i| · [i has any remote target]
func aerExpectations(g *SpikeGraph, assign Assignment, crossbars int) (perSynapse, perCrossbar, multicast int64) {
	csr := g.CSR()
	seen := make([]bool, crossbars)
	for i := 0; i < g.Neurons; i++ {
		spikes := int64(len(g.Spikes[i]))
		if spikes == 0 {
			continue
		}
		for k := range seen {
			seen[k] = false
		}
		var crossing, dsts int64
		for _, s := range csr.Out(i) {
			if k := assign[s.Post]; k != assign[i] {
				crossing++
				if !seen[k] {
					seen[k] = true
					dsts++
				}
			}
		}
		if crossing == 0 {
			continue
		}
		perSynapse += spikes * crossing
		perCrossbar += spikes * dsts
		multicast += spikes
	}
	return
}

// TestSimulateTrafficMatchesCostModel replays a genuinely multi-crossbar
// mapping in all three AER modes and checks the injected-packet counts
// against the paper's cost model (Eq. 7–8). In per-synapse mode the count
// must also equal the partitioning fitness F = Problem.Cost.
func TestSimulateTrafficMatchesCostModel(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 9, DurationMs: 300}, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph
	arch := ForNeurons(g.Neurons, (g.Neurons+5)/6) // six crossbars
	if arch.Crossbars < 3 {
		t.Fatalf("degenerate architecture: %d crossbars", arch.Crossbars)
	}
	p, err := NewProblem(g, arch.Crossbars, arch.CrossbarSize)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Solve(Neutrams, p)
	if err != nil {
		t.Fatal(err)
	}

	// The workload must separate the three modes: duplicate synapses to a
	// crossbar (syn > xbar) and multi-crossbar destination sets
	// (xbar > multicast), or the mode distinction is vacuous.
	wantSyn, wantXbar, wantMulti := aerExpectations(g, res.Assign, arch.Crossbars)
	if !(wantSyn > wantXbar && wantXbar > wantMulti && wantMulti > 0) {
		t.Fatalf("degenerate workload: counts %d/%d/%d", wantSyn, wantXbar, wantMulti)
	}
	if cost := p.Cost(res.Assign); wantSyn != cost {
		t.Fatalf("analytic per-synapse count %d != fitness F %d", wantSyn, cost)
	}

	for _, tc := range []struct {
		mode hardware.AERMode
		want int64
	}{
		{hardware.PerSynapse, wantSyn},
		{hardware.PerCrossbar, wantXbar},
		{hardware.MulticastAER, wantMulti},
	} {
		a := arch
		a.AER = tc.mode
		nr, err := SimulateTraffic(g, res.Assign, a)
		if err != nil {
			t.Fatal(err)
		}
		if nr.Stats.Injected != tc.want {
			t.Fatalf("%s: injected %d, want %d", tc.mode, nr.Stats.Injected, tc.want)
		}
	}
}

// compareTechniques is a cheap technique mix exercising deterministic and
// seeded-stochastic partitioners.
func compareTechniques() []Partitioner {
	return []Partitioner{
		Neutrams,
		Pacman,
		GreedyPartitioner,
		NewPSO(PSOConfig{SwarmSize: 12, Iterations: 12, Seed: 3}),
	}
}

// TestCompareDeterministicAcrossWorkerCounts verifies the engine's
// determinism contract end to end: the same technique sweep produces
// bit-identical reports sequentially and on a parallel worker pool.
func TestCompareDeterministicAcrossWorkerCounts(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 4, DurationMs: 250}, 1, 48)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 16)
	compare := func(workers int) ([]*Report, error) {
		pl, err := NewPipeline(app, arch, WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		return pl.Compare(context.Background(), compareTechniques())
	}
	seq, err := compare(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 4 {
		t.Fatalf("reports = %d", len(seq))
	}
	for _, workers := range []int{2, 4} {
		par, err := compare(workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("reports diverge between Workers=1 and Workers=%d", workers)
		}
	}
}

// TestRunFig5ParallelMatchesSequential is the acceptance check of the
// experiment engine refactor: for a fixed ExpOptions.Seed the full Fig. 5
// driver produces an identical table at every worker count.
func TestRunFig5ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode experiment still costs tens of seconds")
	}
	seq := fig5Quick(t)
	if par := runExperiment(t, "fig5", quick4); !reflect.DeepEqual(seq, par) {
		t.Fatal("Fig. 5 rows diverge between Parallel=1 and Parallel=4")
	}
}

// TestRunAERModeAblationParallelMatchesSequential covers a driver whose
// rows are pure data (no wall clock): parallel and sequential execution
// must agree exactly.
func TestRunAERModeAblationParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-mode experiment still costs tens of seconds")
	}
	seq := runExperiment(t, "ablation-aer", ExpOptions{Quick: true, Seed: 1, Parallel: 1})
	par := runExperiment(t, "ablation-aer", ExpOptions{Quick: true, Seed: 1, Parallel: 3})
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("AER ablation rows diverge between Parallel=1 and Parallel=3")
	}
}
