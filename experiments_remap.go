package snnmap

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
)

// DriftDelta builds a deterministic workload perturbation of magnitude
// frac: frac of the synapses are rewired to a fresh random target (same
// source, so characterized spike trains stay meaningful) and frac of the
// neurons get their firing rate rescaled by a factor in [0.5, 2). All
// randomness comes from the seed, so a drift sweep is reproducible.
func DriftDelta(g *graph.SpikeGraph, frac float64, seed int64) WorkloadDelta {
	rng := rand.New(rand.NewSource(seed))
	var d WorkloadDelta
	rewire := int(frac * float64(len(g.Synapses)))
	if rewire > 0 {
		for _, idx := range rng.Perm(len(g.Synapses))[:rewire] {
			s := g.Synapses[idx]
			d.RemoveSynapses = append(d.RemoveSynapses, graph.Synapse{Pre: s.Pre, Post: s.Post})
			d.AddSynapses = append(d.AddSynapses, graph.Synapse{
				Pre: s.Pre, Post: int32(rng.Intn(g.Neurons)), Weight: s.Weight, DelayMs: s.DelayMs,
			})
		}
	}
	shift := int(frac * float64(g.Neurons))
	if shift > 0 {
		for _, n := range rng.Perm(g.Neurons)[:shift] {
			d.RateShifts = append(d.RateShifts, RateShift{Neuron: n, Factor: 0.5 + 1.5*rng.Float64()})
		}
	}
	return d
}

// remapDrifts are the drift magnitudes the experiment sweeps.
func remapDrifts(quick bool) []float64 {
	if quick {
		return []float64{0.05, 0.2}
	}
	return []float64{0.02, 0.05, 0.1, 0.2, 0.4}
}

// remapRows measures incremental remapping against the static and
// from-scratch alternatives across drift magnitudes. Each row carries a
// base hypercut mapping across one workload perturbation three ways:
// held static, incrementally remapped, and re-solved from scratch.
// rewired_synapses and shifted_neurons size the perturbation;
// touched_neurons is the remap worklist seed the delta implies.
// static_cost scores the unchanged base assignment on the drifted
// problem; remap_cost and resolve_cost score the incremental remap and
// the from-scratch re-solve there.
func remapRows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	n := 512
	if opts.Quick {
		n = 96
	}
	spec := fmt.Sprintf("gen:modular:n=%d", n)
	app, err := BuildApp(spec, AppConfig{Seed: opts.seed(), DurationMs: opts.duration(500)})
	if err != nil {
		return nil, fmt.Errorf("snnmap: building %s: %w", spec, err)
	}
	arch, err := NewArch("tree", app.Graph, ArchSpec{})
	if err != nil {
		return nil, err
	}
	pl, err := pf(app, arch)
	if err != nil {
		return nil, fmt.Errorf("snnmap: opening pipeline for %s: %w", spec, err)
	}
	base, err := pl.Solve(ctx, HyperCutPartitioner)
	if err != nil {
		return nil, err
	}

	drifts := remapDrifts(opts.Quick)
	results := engine.Sweep(ctx, opts.engineConfig(), drifts,
		func(ctx context.Context, frac float64) ([]any, error) {
			// Seed the perturbation from the drift magnitude so every
			// point has its own deterministic delta.
			delta := DriftDelta(app.Graph, frac, opts.seed()+int64(frac*1000))
			g2, err := delta.Apply(app.Graph)
			if err != nil {
				return nil, err
			}
			p2, err := partition.NewProblem(g2, arch.Crossbars, arch.CrossbarSize)
			if err != nil {
				return nil, err
			}
			row := []any{app.Name, frac, len(delta.RemoveSynapses), len(delta.RateShifts),
				len(delta.Touched(g2)), p2.Cost(base.Assign)}
			start := time.Now()
			remapped, err := pl.Remap(ctx, base, delta)
			if err != nil {
				return nil, err
			}
			remapWall := time.Since(start)

			start = time.Now()
			resolved, err := partition.Solve(partition.HyperCut{}, p2)
			if err != nil {
				return nil, err
			}
			resolveWall := time.Since(start)
			return append(row, remapped.Cost, resolved.Cost, remapWall, resolveWall), nil
		})
	return valuesNamed(results, func(i int) string { return fmt.Sprintf("remap drift %g", drifts[i]) })
}
