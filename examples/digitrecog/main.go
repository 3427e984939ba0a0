// Digit recognition mapping: the handwritten digit application of the
// paper's Table I (Diehl & Cook-style unsupervised (250, 250) network with
// STDP), mapped with all three techniques of Fig. 5 onto a CxQuad-style
// architecture through one warm pipeline session. Prints the per-technique
// energy split and SNN metrics, plus a stage-by-stage trace of the PSO run
// via the pipeline's observer hook.
//
// Run with:
//
//	go run ./examples/digitrecog [-duration 1000] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	snnmap "repro"
)

func main() {
	log.SetFlags(0)
	duration := flag.Int64("duration", 1000, "characterization run length in ms")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	app, err := snnmap.BuildApp("HD", snnmap.AppConfig{Seed: *seed, DurationMs: *duration})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", app.Description)
	fmt.Printf("%d neurons, %d synapses, %d spikes recorded over %d ms\n\n",
		app.Graph.Neurons, len(app.Graph.CSR.Post), app.Graph.TotalSpikes(), app.Graph.DurationMs)

	arch := snnmap.PacmanCapableArch(app.Graph)
	fmt.Printf("architecture: %d crossbars × %d neurons (NoC-tree)\n\n", arch.Crossbars, arch.CrossbarSize)

	// One warm session maps all three techniques; the observer prints
	// each pipeline stage of the PSO run as it completes.
	pipe, err := snnmap.NewPipeline(app, arch,
		snnmap.WithObserver(snnmap.ObserverFunc(func(ev snnmap.StageEvent) {
			if ev.Technique == "PSO" {
				fmt.Printf("  [stage] %-9s %-8s %s\n", ev.Stage, ev.Technique, ev.Elapsed.Round(1e6))
			}
		})))
	if err != nil {
		log.Fatal(err)
	}

	pso := snnmap.NewPSO(snnmap.PSOConfig{SwarmSize: 60, Iterations: 60, Seed: *seed})
	reports, err := pipe.Compare(context.Background(), []snnmap.Partitioner{
		snnmap.Neutrams, snnmap.Pacman, pso,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("%-10s %14s %14s %12s %10s %10s\n",
		"technique", "global energy", "local energy", "ISI (cyc)", "disorder", "latency")
	var neutramsEnergy float64
	for _, r := range reports {
		if r.Technique == "NEUTRAMS" {
			neutramsEnergy = r.GlobalEnergyPJ
		}
		fmt.Printf("%-10s %11.1f µJ %11.1f µJ %12.1f %9.2f%% %10d\n",
			r.Technique, r.GlobalEnergyPJ/1e6, r.LocalEnergyPJ/1e6,
			r.Metrics.ISIAvgCycles, r.Metrics.DisorderFrac*100, r.Metrics.MaxLatencyCycles)
	}
	fmt.Println()
	for _, r := range reports {
		if neutramsEnergy > 0 && r.Technique == "PSO" {
			fmt.Printf("PSO reduces interconnect energy by %.1f%% versus NEUTRAMS\n",
				(1-r.GlobalEnergyPJ/neutramsEnergy)*100)
		}
	}
}
