package snnmap

import (
	"context"
	"testing"

	"repro/internal/hardware"
	"repro/internal/partition"
)

// runOnce maps one technique through a single-use session: the cold
// path every warm-session test is compared against.
func runOnce(app *App, arch Arch, pt Partitioner, opts ...Option) (*Report, error) {
	pl, err := NewPipeline(app, arch, opts...)
	if err != nil {
		return nil, err
	}
	return pl.Run(context.Background(), pt)
}

func TestFullPipelineHelloWorld(t *testing.T) {
	app, err := BuildApp("HW", AppConfig{Seed: 1, DurationMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	// Quarter-scale CxQuad (4×32) so the 126-neuron app must split and
	// produce interconnect traffic. On the full CxQuad (4×256) the app
	// fits a single crossbar and the optimum has zero global traffic.
	arch := ForNeurons(app.Graph.Neurons, 32)
	rep, err := runOnce(app, arch, NewPSO(PSOConfig{SwarmSize: 20, Iterations: 20, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppName != "HW" || rep.Technique != "PSO" {
		t.Fatalf("report identity = %s/%s", rep.AppName, rep.Technique)
	}
	if rep.Neurons != 126 {
		t.Fatalf("neurons = %d", rep.Neurons)
	}
	if rep.GlobalSynapseCount+rep.LocalSynapseCount != rep.Synapses {
		t.Fatal("synapse split does not add up")
	}
	if rep.TotalEnergyPJ != rep.LocalEnergyPJ+rep.GlobalEnergyPJ {
		t.Fatal("energy split does not add up")
	}
	if rep.NoC.Delivered == 0 {
		t.Fatal("no interconnect traffic simulated")
	}
	if rep.Deliveries != nil {
		t.Fatal("trace kept without WithTrace")
	}
}

func TestPSOReducesEnergyVersusBaselines(t *testing.T) {
	// The headline claim of the paper (Fig. 5): PSO-partitioned mappings
	// spend less interconnect energy than PACMAN and NEUTRAMS.
	app, err := BuildSynthetic(AppConfig{Seed: 3, DurationMs: 250}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	arch := ForNeurons(app.Graph.Neurons, 64)
	pl, err := NewPipeline(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := pl.Compare(context.Background(), []Partitioner{
		Neutrams,
		Pacman,
		NewPSO(PSOConfig{SwarmSize: 50, Iterations: 60, Seed: 4}),
	})
	if err != nil {
		t.Fatal(err)
	}
	neutrams, pacman, pso := reports[0], reports[1], reports[2]
	if pso.GlobalEnergyPJ > pacman.GlobalEnergyPJ {
		t.Fatalf("PSO energy %.0f > PACMAN %.0f", pso.GlobalEnergyPJ, pacman.GlobalEnergyPJ)
	}
	if pso.GlobalEnergyPJ >= neutrams.GlobalEnergyPJ {
		t.Fatalf("PSO energy %.0f >= NEUTRAMS %.0f", pso.GlobalEnergyPJ, neutrams.GlobalEnergyPJ)
	}
	// Traffic ordering must match the fitness ordering.
	if pso.GlobalTraffic > pacman.GlobalTraffic || pso.GlobalTraffic >= neutrams.GlobalTraffic {
		t.Fatalf("traffic ordering broken: pso=%d pacman=%d neutrams=%d",
			pso.GlobalTraffic, pacman.GlobalTraffic, neutrams.GlobalTraffic)
	}
}

func TestSimulateTrafficAERModes(t *testing.T) {
	// All 30 targets of each input neuron sit on one remote crossbar:
	// per-synapse mode injects 30 packets per spike, per-crossbar and
	// multicast modes inject exactly one.
	app, err := BuildSynthetic(AppConfig{Seed: 5, DurationMs: 400}, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph
	arch := ForNeurons(g.Neurons, 20)
	// Inputs (first 10 neurons) on crossbar 0, everything else on 1.
	assign := make(Assignment, g.Neurons)
	for i := 10; i < g.Neurons; i++ {
		assign[i] = 1
	}
	var inputSpikes int64
	for i := 0; i < 10; i++ {
		inputSpikes += int64(len(g.Spikes[i]))
	}

	perSyn := arch
	perSyn.AER = PerSynapse
	res, err := SimulateTraffic(g, assign, perSyn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Injected != inputSpikes*30 {
		t.Fatalf("per-synapse injected %d, want %d", res.Stats.Injected, inputSpikes*30)
	}

	for _, mode := range []struct {
		name string
		m    hardware.AERMode
	}{{"per-crossbar", PerCrossbar}, {"multicast", MulticastAER}} {
		a := arch
		a.AER = mode.m
		res, err := SimulateTraffic(g, assign, a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Injected != inputSpikes {
			t.Fatalf("%s injected %d, want %d (one per spike)", mode.name, res.Stats.Injected, inputSpikes)
		}
	}
}

func TestRunValidation(t *testing.T) {
	app, err := BuildSynthetic(AppConfig{Seed: 6, DurationMs: 100}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	arch := CxQuad()
	if _, err := runOnce(nil, arch, Pacman); err == nil {
		t.Fatal("nil app must fail")
	}
	if _, err := runOnce(app, arch, nil); err == nil {
		t.Fatal("nil partitioner must fail")
	}
	bad := arch
	bad.Crossbars = 0
	if _, err := runOnce(app, bad, Pacman); err == nil {
		t.Fatal("invalid arch must fail")
	}
	tiny := ForNeurons(4, 4) // capacity 4 < 20 neurons
	if _, err := runOnce(app, tiny, Pacman); err == nil {
		t.Fatal("undersized arch must fail")
	}
}

func TestCompareAllTechniquesOnCxQuad(t *testing.T) {
	app, err := BuildApp("HW", AppConfig{Seed: 7, DurationMs: 300})
	if err != nil {
		t.Fatal(err)
	}
	techniques := []Partitioner{
		Neutrams, Pacman, GreedyPartitioner,
		NewPSO(PSOConfig{SwarmSize: 15, Iterations: 15, Seed: 1}),
		partition.Annealing{Seed: 1, Moves: 3000},
		partition.Genetic{Seed: 1, Population: 15, Generations: 15},
		partition.Random{Seed: 1},
		partition.KLRefine{Base: partition.Pacman{}},
	}
	pl, err := NewPipeline(app, CxQuad())
	if err != nil {
		t.Fatal(err)
	}
	reports, err := pl.Compare(context.Background(), techniques)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(techniques) {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if r.NoC.Injected > 0 && r.NoC.Delivered == 0 {
			t.Fatalf("%s: injected but nothing delivered", r.Technique)
		}
	}
}
