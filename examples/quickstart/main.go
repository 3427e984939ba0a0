// Quickstart: the smallest end-to-end use of the public API.
//
// It builds a small synthetic SNN (two fully connected feedforward layers
// driven by ten Poisson sources, as in the paper's §V-A), opens a warm
// pipeline session for it on a CxQuad-style architecture, maps it with the
// paper's PSO partitioner, and prints the energy/latency/SNN metrics the
// framework reports. The same session then serves the baseline comparison
// of the paper's Fig. 5 — the expensive per-(app, arch) state (CSR
// adjacency, problem instance, interconnect topology) is built once.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	snnmap "repro"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// 1. Build and characterize an application. The simulator (the
	// CARLsim substitute) runs the network for 500 ms and records every
	// spike; the result is the spike graph G = (A, S) of the paper.
	app, err := snnmap.BuildSynthetic(snnmap.AppConfig{Seed: 42, DurationMs: 500}, 2, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application: %s — %d neurons, %d synapses, %d spikes\n",
		app.Name, app.Graph.Neurons, len(app.Graph.CSR.Post), app.Graph.TotalSpikes())

	// 2. Describe the hardware: a tree-interconnect architecture with
	// 32-neuron crossbars sized for this network.
	arch := snnmap.ForNeurons(app.Graph.Neurons, 32)
	fmt.Printf("architecture: %s — %d crossbars × %d neurons\n",
		arch.Name, arch.Crossbars, arch.CrossbarSize)

	// 3. Open a warm session for the (application, architecture) pair.
	// NewPipeline builds the spike-graph adjacency, the partitioning
	// problem and the interconnect topology once; every Run reuses them.
	pipe, err := snnmap.NewPipeline(app, arch)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Partition into local and global synapses with the paper's PSO
	// and replay the global traffic on the interconnect simulator.
	pso := snnmap.NewPSO(snnmap.PSOConfig{SwarmSize: 50, Iterations: 50, Seed: 1})
	report, err := pipe.Run(ctx, pso)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("local synapses:   %d (inside crossbars)\n", report.LocalSynapseCount)
	fmt.Printf("global synapses:  %d (on the interconnect)\n", report.GlobalSynapseCount)
	fmt.Printf("fitness F:        %d spikes on the interconnect\n", report.GlobalTraffic)
	fmt.Printf("local energy:     %.2f µJ\n", report.LocalEnergyPJ/1e6)
	fmt.Printf("global energy:    %.2f µJ\n", report.GlobalEnergyPJ/1e6)
	fmt.Printf("ISI distortion:   %.1f cycles (avg), %d (max)\n",
		report.Metrics.ISIAvgCycles, report.Metrics.ISIMaxCycles)
	fmt.Printf("spike disorder:   %.2f%%\n", report.Metrics.DisorderFrac*100)
	fmt.Printf("latency:          %.1f cycles (avg), %d (max)\n",
		report.Metrics.AvgLatencyCycles, report.Metrics.MaxLatencyCycles)
	fmt.Printf("throughput:       %.2f AER packets/ms\n", report.Metrics.ThroughputPerMs)

	// 5. Compare against the two baselines of the paper's Fig. 5 on the
	// same warm session — no per-technique setup cost.
	fmt.Println()
	fmt.Println("technique   interconnect energy (pJ)")
	reports, err := pipe.Compare(ctx, []snnmap.Partitioner{
		snnmap.Neutrams, snnmap.Pacman, pso,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Printf("%-10s  %.0f\n", r.Technique, r.GlobalEnergyPJ)
	}
}
