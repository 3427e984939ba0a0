package snnmap

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/genapp"
)

// ScenarioSpecs returns the registry specs of the generated workload
// families the scenarios experiment sweeps, sized for quick (CI) or full
// runs.
func ScenarioSpecs(quick bool) []string {
	n := 512
	if quick {
		n = 96
	}
	specs := make([]string, 0, len(genapp.Families()))
	for _, family := range genapp.Families() {
		specs = append(specs, fmt.Sprintf("gen:%s:n=%d", family, n))
	}
	return specs
}

// scenarioArchNames are the interconnect families the sweep crosses every
// scenario with — the tree/mesh contrast the topology ablation studies.
var scenarioArchNames = []string{"tree", "mesh"}

// scenarioRows sweeps the generated workload families of internal/genapp
// across deterministic partitioning techniques and the tree/mesh
// architecture families — the breadth evaluation the fixed Table I
// applications cannot provide. Each row reports the paper's key split
// (local vs global synapses) under one technique's mapping, with the
// fitness F (Eq. 8) as traffic.
func scenarioRows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	specs := ScenarioSpecs(opts.Quick)
	builds := engine.Sweep(ctx, opts.engineConfig(), specs,
		func(_ context.Context, spec string) (*App, error) {
			return BuildApp(spec, AppConfig{Seed: opts.seed(), DurationMs: opts.duration(500)})
		})
	built, err := valuesNamed(builds, func(i int) string { return "building " + specs[i] })
	if err != nil {
		return nil, err
	}

	// One warm pipeline per (scenario, architecture) pair.
	type cell struct {
		app  *App
		arch string
		pl   *Pipeline
	}
	cells := make([]cell, 0, len(built)*len(scenarioArchNames))
	for _, app := range built {
		for _, archName := range scenarioArchNames {
			arch, err := NewArch(archName, app.Graph, ArchSpec{})
			if err != nil {
				return nil, err
			}
			pl, err := pf(app, arch)
			if err != nil {
				return nil, fmt.Errorf("snnmap: opening pipeline for %s on %s: %w", app.Name, archName, err)
			}
			cells = append(cells, cell{app: app, arch: archName, pl: pl})
		}
	}

	techniques := []Partitioner{Neutrams, GreedyPartitioner}
	return sweepGrid(ctx, opts, len(cells), len(techniques),
		func(ctx context.Context, c, t int) ([]any, error) {
			rep, err := cells[c].pl.Run(ctx, techniques[t])
			if err != nil {
				return nil, fmt.Errorf("snnmap: %s on %s/%s: %w",
					techniques[t].Name(), cells[c].app.Name, cells[c].arch, err)
			}
			return []any{rep.AppName, cells[c].arch, rep.Technique, rep.Neurons, rep.Synapses,
				rep.LocalSynapseCount, rep.GlobalSynapseCount, rep.GlobalTraffic,
				rep.TotalEnergyPJ, rep.Metrics.AvgLatencyCycles}, nil
		})
}
