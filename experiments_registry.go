package snnmap

import "context"

// experiment is the function-backed Experiment every built-in driver
// registers through. It owns the result schema: rows returns one cell
// slice per table row, in the order of columns, and Run assembles the
// Table — so a table's Name is its registry key by construction.
type experiment struct {
	name     string
	describe string
	title    string
	columns  []Column
	rows     func(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error)
}

func (e experiment) Name() string     { return e.name }
func (e experiment) Describe() string { return e.describe }
func (e experiment) Run(ctx context.Context, pf PipelineFactory, opts ExpOptions) (*Table, error) {
	if pf == nil {
		pf = NewPipeline
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rows, err := e.rows(ctx, pf, opts)
	if err != nil {
		return nil, err
	}
	t := NewTable(e.name, e.title, e.columns...)
	for _, r := range rows {
		if err := t.AddRow(r...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func init() {
	for _, e := range []experiment{
		{
			"fig5", "normalized interconnect energy: NEUTRAMS vs PACMAN vs PSO (paper Fig. 5)",
			"Figure 5 — Normalized energy on the global synapse interconnect",
			[]Column{
				{"app", ColString}, {"neurons", ColInt}, {"synapses", ColInt},
				{"energy_neutrams_pj", ColFloat}, {"energy_pacman_pj", ColFloat}, {"energy_pso_pj", ColFloat},
				{"norm_neutrams", ColFloat}, {"norm_pacman", ColFloat}, {"norm_pso", ColFloat},
			},
			fig5Rows,
		},
		{
			"table2", "ISI distortion, disorder, throughput, latency per realistic app (paper Table II)",
			"Table II — SNN metric evaluation for realistic applications",
			[]Column{
				{"app", ColString}, {"technique", ColString},
				{"isi_distortion_cycles", ColFloat}, {"disorder_frac", ColFloat},
				{"throughput_per_ms", ColFloat}, {"max_latency_cycles", ColInt},
			},
			table2Rows,
		},
		{
			"fig6", "architecture exploration: crossbar size sweep on digit recognition (paper Fig. 6)",
			"Figure 6 — Architecture exploration (digit recognition)",
			[]Column{
				{"neurons_per_crossbar", ColInt}, {"crossbars", ColInt},
				{"local_energy_uj", ColFloat}, {"global_energy_uj", ColFloat},
				{"total_energy_uj", ColFloat}, {"max_latency_cycles", ColInt},
			},
			fig6Rows,
		},
		{
			"fig7", "PSO swarm-size exploration (paper Fig. 7)",
			"Figure 7 — Exploration with swarm size (iterations = 100)",
			[]Column{
				{"app", ColString}, {"swarm_size", ColInt},
				{"energy_pj", ColFloat}, {"normalized", ColFloat},
			},
			fig7Rows,
		},
		{
			"accuracy", "heartbeat estimation accuracy vs ISI distortion (paper §V-B)",
			"§V-B — Heartbeat estimation accuracy vs ISI distortion",
			[]Column{
				{"technique", ColString}, {"isi_distortion_cycles", ColFloat},
				{"estimated_bpm", ColFloat}, {"rate_error_pct", ColFloat},
				{"interval_error_pct", ColFloat},
				{"true_bpm", ColFloat}, {"source_bpm", ColFloat},
			},
			accuracyRows,
		},
		{
			"ablation-optimizer", "optimizer comparison: PSO vs SA/GA/greedy/KL/random (paper §III claim)",
			"Ablation — optimizer comparison (synthetic 2x200)",
			[]Column{{"technique", ColString}, {"cost", ColInt}, {"wall_clock", ColDuration}},
			optimizerRows,
		},
		{
			"ablation-aer", "AER packetization: per-synapse vs per-crossbar vs multicast (Noxim++ extension)",
			"Ablation — AER packetization (digit recognition, NEUTRAMS mapping)",
			[]Column{
				{"mode", ColString}, {"injected", ColInt}, {"hops", ColInt},
				{"energy_pj", ColFloat}, {"avg_latency_cycles", ColFloat},
			},
			aerModeRows,
		},
		{
			"ablation-topology", "interconnect topology: NoC-tree vs NoC-mesh under one PSO mapping",
			"Ablation — interconnect topology (image smoothing, PSO mapping)",
			[]Column{
				{"topology", ColString}, {"energy_pj", ColFloat},
				{"avg_latency_cycles", ColFloat}, {"max_latency_cycles", ColInt},
			},
			topologyRows,
		},
		{
			"scenarios", "generated workload families (internal/genapp) × techniques × tree/mesh interconnects",
			"Generated workload families — technique × interconnect sweep",
			[]Column{
				{"app", ColString}, {"arch", ColString}, {"technique", ColString},
				{"neurons", ColInt}, {"synapses", ColInt},
				{"local_synapses", ColInt}, {"global_synapses", ColInt},
				{"traffic", ColInt}, {"total_energy_pj", ColFloat},
				{"avg_latency_cycles", ColFloat},
			},
			scenarioRows,
		},
		{
			"remap", "incremental remap vs static/from-scratch mapping across drift magnitudes (hypercut)",
			"Incremental remap vs static and from-scratch mapping under workload drift (gen:modular, hypercut)",
			[]Column{
				{"app", ColString}, {"drift", ColFloat},
				{"rewired_synapses", ColInt}, {"shifted_neurons", ColInt},
				{"touched_neurons", ColInt},
				{"static_cost", ColInt}, {"remap_cost", ColInt}, {"resolve_cost", ColInt},
				{"remap_wall", ColDuration}, {"resolve_wall", ColDuration},
			},
			remapRows,
		},
	} {
		RegisterExperiment(e)
	}
}
