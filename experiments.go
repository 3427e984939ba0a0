package snnmap

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/partition"
)

// ExpOptions tunes the experiment harness.
type ExpOptions struct {
	// Quick trades fidelity for speed: shorter characterization runs and
	// smaller swarms. Used by unit-style invocations and CI.
	Quick bool
	// Seed drives all stochastic components.
	Seed int64
	// Parallel bounds the experiment engine's worker pool — the number of
	// sweep jobs (application builds, pipeline runs) in flight at once.
	// 0 selects runtime.GOMAXPROCS; 1 executes sweeps strictly
	// sequentially. Every driver produces identical rows at every worker
	// count for a fixed Seed, apart from ColDuration columns (wall clocks).
	Parallel int
	// Timeout bounds each sweep job's wall clock; 0 disables the limit.
	Timeout time.Duration
}

func (o ExpOptions) engineConfig() engine.Config {
	return engine.Config{Workers: o.Parallel, Timeout: o.Timeout}
}

func (o ExpOptions) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o ExpOptions) duration(standard int64) int64 {
	if o.Quick {
		if standard > 2000 {
			return standard / 5
		}
		d := standard / 4
		if d < 250 {
			d = 250
		}
		return d
	}
	return standard
}

func (o ExpOptions) pso(seed int64) *partition.PSO {
	cfg := DefaultPSOConfig()
	cfg.Seed = seed
	// The sweep owns the parallelism budget: with one worker a job steps
	// its swarm inline on its own goroutine, so Parallel bounds the busy
	// goroutines instead of multiplying (Parallel × swarm workers). A
	// lone solve with no sweep around it (ablation-topology's) takes the
	// whole budget instead. One exception: a job abandoned by a per-job
	// Timeout keeps computing until it finishes (partitioners don't take
	// a context), temporarily exceeding the budget. PSO results are
	// bit-identical at every worker count, so this is purely a
	// scheduling choice.
	cfg.Workers = 1
	if o.Quick {
		cfg.SwarmSize = 30
		cfg.Iterations = 30
	}
	return NewPSO(cfg)
}

// PacmanCapableArch sizes a CxQuad-style architecture with 128-neuron
// crossbars (the CxQuad crossbar dimension; 32 for networks that would
// otherwise fit a single crossbar) and enough crossbars for PACMAN's
// population-exclusive placement — used by the Fig. 5 energy comparison.
// Like CxQuad's NoC-tree, the interconnect is a single-root tree, so every
// crossbar pair is two hops apart and interconnect energy is proportional
// to the partitioning fitness F.
func PacmanCapableArch(g *SpikeGraph) Arch {
	nc := 128
	if g.Neurons <= 256 {
		nc = 32
	}
	fragments := 0
	covered := 0
	for _, grp := range g.Groups {
		fragments += (grp.N + nc - 1) / nc
		covered += grp.N
	}
	min := (g.Neurons + nc - 1) / nc
	if covered != g.Neurons || fragments < min {
		fragments = min
	}
	a := hardware.ForNeurons(g.Neurons, nc)
	a.Crossbars = fragments
	a.TreeArity = fragments // single-root tree: uniform 2-hop distances
	if a.TreeArity < 2 {
		a.TreeArity = 2
	}
	a.Name = fmt.Sprintf("star-%dx%d", fragments, nc)
	return a
}

// QuadArch sizes a CxQuad-like 4-crossbar architecture tightly around the
// application (crossbar size ≈ N/4 with 15% slack), forcing every
// technique to distribute the network — used by the Table II congestion
// metrics and the Fig. 7 swarm exploration.
func QuadArch(g *SpikeGraph) Arch {
	nc := (g.Neurons*115/100 + 3) / 4
	if nc < 1 {
		nc = 1
	}
	a := hardware.CxQuad()
	a.CrossbarSize = nc
	a.Name = fmt.Sprintf("quad-4x%d", nc)
	return a
}

// workload names one experiment application: a builder plus the
// characterization run length the paper uses for it.
type workload struct {
	name    string
	builder apps.Builder
	durMs   int64
}

// buildWorkloads characterizes every workload (an SNN simulation each) as
// one engine sweep, returning the built applications in workload order.
func buildWorkloads(ctx context.Context, opts ExpOptions, workloads []workload) ([]*App, error) {
	results := engine.Sweep(ctx, opts.engineConfig(), workloads,
		func(_ context.Context, w workload) (*App, error) {
			return w.builder(AppConfig{Seed: opts.seed(), DurationMs: opts.duration(w.durMs)})
		})
	return valuesNamed(results, func(i int) string { return "building " + workloads[i].name })
}

// buildPipelines opens one warm session per built workload through the
// experiment's pipeline factory — the per-(app, arch) state (problem
// instance, interconnect topology, characterization) is then shared by
// every technique the grid runs on that workload.
func buildPipelines(pf PipelineFactory, built []*App, archFor func(g *SpikeGraph) Arch, popts ...Option) ([]*Pipeline, error) {
	out := make([]*Pipeline, len(built))
	for i, app := range built {
		pl, err := pf(app, archFor(app.Graph), popts...)
		if err != nil {
			return nil, fmt.Errorf("snnmap: opening pipeline for %s: %w", app.Name, err)
		}
		out[i] = pl
	}
	return out, nil
}

// valuesNamed unwraps a sweep's results, wrapping any captured error with
// the job's display name. Unlike wrapping inside the job function, this
// also names engine-generated errors (timeouts, cancellations), which
// otherwise carry only a flat job index.
func valuesNamed[R any](results []engine.Result[R], name func(i int) string) ([]R, error) {
	out := make([]R, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("snnmap: %s: %w", name(i), r.Err)
		}
		out[i] = r.Value
	}
	return out, nil
}

// sweepGrid executes fn over the w-major cross product of nw × nt cells
// as one engine sweep, returning the results in that order: cell (w, t)
// at index w*nt + t. It is the shared shape of the Fig. 5, Table II,
// Fig. 7 and scenario grids: workloads × techniques (or swarm sizes).
func sweepGrid[R any](ctx context.Context, opts ExpOptions, nw, nt int, fn func(ctx context.Context, w, t int) (R, error)) ([]R, error) {
	type cell struct{ w, t int }
	cells := make([]cell, 0, nw*nt)
	for w := 0; w < nw; w++ {
		for t := 0; t < nt; t++ {
			cells = append(cells, cell{w, t})
		}
	}
	results := engine.Sweep(ctx, opts.engineConfig(), cells,
		func(ctx context.Context, c cell) (R, error) { return fn(ctx, c.w, c.t) })
	// Engine-generated errors (timeouts, cancellations) carry only a flat
	// job index; the name translates it back into grid coordinates. fn's
	// own errors additionally name the workload/technique.
	return valuesNamed(results, func(i int) string {
		return fmt.Sprintf("sweep cell (%d,%d) of %d×%d grid", cells[i].w, cells[i].t, nw, nt)
	})
}

// fig5Workloads lists the Fig. 5 X axis: the synthetic topologies swept in
// §V-A (four of the eight are plotted in the paper; all eight are listed in
// the text) followed by the realistic applications.
func fig5Workloads() []workload {
	type w = workload
	out := []w{
		{"1x200", apps.SyntheticBuilder(1, 200), 1000},
		{"1x600", apps.SyntheticBuilder(1, 600), 1000},
		{"1x800", apps.SyntheticBuilder(1, 800), 1000},
		{"2x200", apps.SyntheticBuilder(2, 200), 1000},
		{"2x400", apps.SyntheticBuilder(2, 400), 1000},
		{"3x200", apps.SyntheticBuilder(3, 200), 1000},
		{"4x100", apps.SyntheticBuilder(4, 100), 1000},
		{"4x200", apps.SyntheticBuilder(4, 200), 1000},
	}
	real := []struct {
		name  string
		durMs int64
	}{{"HW", 1000}, {"IS", 1000}, {"HD", 1000}, {"HE", 10000}}
	for _, r := range real {
		b, _ := apps.ByName(r.name)
		out = append(out, w{r.name, b, r.durMs})
	}
	return out
}

// fig5Rows regenerates the paper's Fig. 5: normalized energy consumption
// on the global synapse interconnect for NEUTRAMS, PACMAN and the proposed
// PSO, over synthetic and realistic applications. Two engine sweeps: one
// characterizes the twelve workloads, one runs every workload × technique
// cell of the grid through a warm per-workload pipeline. Each row carries
// the absolute energies, then the energies normalized to NEUTRAMS.
func fig5Rows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	workloads := fig5Workloads()
	built, err := buildWorkloads(ctx, opts, workloads)
	if err != nil {
		return nil, err
	}
	pipelines, err := buildPipelines(pf, built, PacmanCapableArch)
	if err != nil {
		return nil, err
	}
	techniques := []Partitioner{Neutrams, Pacman, opts.pso(opts.seed())}
	nt := len(techniques)
	energies, err := sweepGrid(ctx, opts, len(workloads), nt,
		func(ctx context.Context, w, t int) (float64, error) {
			rep, err := pipelines[w].Run(ctx, techniques[t])
			if err != nil {
				return 0, fmt.Errorf("snnmap: %s on %s: %w", techniques[t].Name(), workloads[w].name, err)
			}
			return rep.GlobalEnergyPJ, nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([][]any, 0, len(workloads))
	for w, wl := range workloads {
		e := energies[w*nt : (w+1)*nt] // NEUTRAMS, PACMAN, PSO
		row := []any{wl.name, built[w].Graph.Neurons, len(built[w].Graph.Synapses), e[0], e[1], e[2]}
		for _, v := range e {
			norm := 0.0
			if e[0] > 0 {
				norm = v / e[0]
			}
			row = append(row, norm)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table2Rows regenerates the paper's Table II: ISI distortion, spike
// disorder, throughput and latency for the four realistic applications on
// a tightly provisioned 4-crossbar architecture, one row per application
// and technique (PACMAN, then the proposed PSO).
func table2Rows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	durations := map[string]int64{"HW": 1000, "IS": 1000, "HD": 1000, "HE": 10000}
	var workloads []workload
	for _, name := range apps.RealisticNames() {
		b, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, workload{name: name, builder: b, durMs: durations[name]})
	}
	built, err := buildWorkloads(ctx, opts, workloads)
	if err != nil {
		return nil, err
	}
	pipelines, err := buildPipelines(pf, built, QuadArch)
	if err != nil {
		return nil, err
	}
	techniques := []Partitioner{Pacman, opts.pso(opts.seed())}
	return sweepGrid(ctx, opts, len(workloads), len(techniques),
		func(ctx context.Context, w, t int) ([]any, error) {
			rep, err := pipelines[w].Run(ctx, techniques[t])
			if err != nil {
				return nil, fmt.Errorf("snnmap: %s on %s: %w", techniques[t].Name(), workloads[w].name, err)
			}
			return []any{workloads[w].name, rep.Technique,
				rep.Metrics.ISIAvgCycles, rep.Metrics.DisorderFrac,
				rep.Metrics.ThroughputPerMs, rep.Metrics.MaxLatencyCycles}, nil
		})
}

// fig6Rows regenerates the paper's Fig. 6: local/global/total synapse
// energy and worst-case interconnect latency for the digit recognition
// application as the crossbar size grows from 90 to 1440 neurons.
func fig6Rows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	app, err := apps.DigitRecognition(AppConfig{Seed: opts.seed(), DurationMs: opts.duration(1000)})
	if err != nil {
		return nil, err
	}
	sizes := []int{90, 180, 360, 720, 1080, 1440}
	pso := opts.pso(opts.seed())
	results := engine.Sweep(ctx, opts.engineConfig(), sizes,
		func(ctx context.Context, nc int) ([]any, error) {
			// The architecture changes at every sweep point, so each cell
			// opens its own session; the factory is still the reuse seam
			// (a caching factory can serve repeated sweeps warm).
			arch := hardware.ForNeurons(app.Graph.Neurons, nc)
			pl, err := pf(app, arch)
			if err != nil {
				return nil, err
			}
			rep, err := pl.Run(ctx, pso)
			if err != nil {
				return nil, err
			}
			return []any{nc, arch.Crossbars,
				rep.LocalEnergyPJ / 1e6, rep.GlobalEnergyPJ / 1e6, rep.TotalEnergyPJ / 1e6,
				rep.Metrics.MaxLatencyCycles}, nil
		})
	return valuesNamed(results, func(i int) string { return fmt.Sprintf("Fig6 at Nc=%d", sizes[i]) })
}

// fig7Rows regenerates the paper's Fig. 7: interconnect energy versus PSO
// swarm size (iterations fixed at 100) for two realistic and two synthetic
// applications, normalized per application to the sweep's minimum.
// Heuristic seeding is disabled so the sweep reflects pure swarm behavior.
func fig7Rows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	workloads := []workload{
		{"hello_world", apps.Builder(apps.HelloWorld), 1000},
		{"heartbeat_estimation", nil, 10000},
		{"synth_1x800", apps.SyntheticBuilder(1, 800), 1000},
		{"synth_2x200", apps.SyntheticBuilder(2, 200), 1000},
	}
	heBuilder, err := apps.ByName("HE")
	if err != nil {
		return nil, err
	}
	workloads[1].builder = heBuilder

	sizes := []int{10, 32, 105, 330, 1000}
	if opts.Quick {
		sizes = []int{10, 32, 105}
	}
	iterations := 100
	if opts.Quick {
		iterations = 40
	}

	built, err := buildWorkloads(ctx, opts, workloads)
	if err != nil {
		return nil, err
	}
	// One warm session per workload serves the whole swarm-size sweep:
	// the problem instance and interconnect are shared by all five PSO
	// configurations.
	pipelines, err := buildPipelines(pf, built, QuadArch)
	if err != nil {
		return nil, err
	}
	energies, err := sweepGrid(ctx, opts, len(workloads), len(sizes),
		func(ctx context.Context, w, s int) (float64, error) {
			cfg := PSOConfig{
				SwarmSize:      sizes[s],
				Iterations:     iterations,
				Seed:           opts.seed(),
				Workers:        1, // the sweep owns the parallelism budget
				DisableSeeding: true,
			}
			rep, err := pipelines[w].Run(ctx, NewPSO(cfg))
			if err != nil {
				return 0, fmt.Errorf("snnmap: Fig7 %s at swarm %d: %w", workloads[w].name, sizes[s], err)
			}
			return rep.GlobalEnergyPJ, nil
		})
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for w, wl := range workloads {
		sweep := energies[w*len(sizes) : (w+1)*len(sizes)]
		best := sweep[0]
		for _, e := range sweep {
			if e < best {
				best = e
			}
		}
		for i, swarm := range sizes {
			norm := 0.0
			if best > 0 {
				norm = sweep[i] / best
			}
			rows = append(rows, []any{wl.name, swarm, sweep[i], norm})
		}
	}
	return rows, nil
}

// accuracyRows regenerates the heartbeat-accuracy experiment of §V-B,
// quantifying the claim that reducing ISI distortion improves the
// temporally coded heartbeat estimation. The heartbeat LSM is mapped with
// PACMAN and PSO onto an interconnect whose clock is provisioned just
// above the PACMAN mapping's average load, so congestion-induced queueing
// reaches the millisecond scale of the temporal code. The heart rate is
// then re-estimated from the UP-channel encoder spikes as they *arrive*
// across the interconnect: the technique with lower interconnect traffic
// suffers less ISI distortion and its estimate stays closer to the truth.
//
// Per technique, rate_error_pct is |estimate − truth| / truth × 100 for
// the mean rate, and interval_error_pct is the mean absolute
// per-beat-interval error of the arrival-time beat sequence against the
// source beat sequence — the accuracy of instantaneous heart-rate
// estimation, which ISI distortion directly corrupts. source_bpm is the
// estimate from undistorted spike creation times.
func accuracyRows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	he, err := apps.Heartbeat(apps.HeartbeatConfig{
		Config: AppConfig{Seed: opts.seed(), DurationMs: opts.duration(20000)},
		BPM:    72,
	})
	if err != nil {
		return nil, err
	}
	g := he.App.Graph
	durMs := g.DurationMs
	arch := QuadArch(g)

	// The UP channel is the first neuron of the input group.
	upNeuron := int32(0)
	for _, grp := range g.Groups {
		if grp.Kind == "input" {
			upNeuron = int32(grp.Start)
			break
		}
	}

	// Provision the interconnect clock at ~1.35× the PACMAN mapping's
	// average packet rate: PACMAN runs near saturation while the leaner
	// PSO mapping keeps headroom.
	p, err := NewProblem(g, arch.Crossbars, arch.CrossbarSize)
	if err != nil {
		return nil, err
	}
	pacRes, err := partition.Solve(Pacman, p)
	if err != nil {
		return nil, err
	}
	load := pacRes.Cost / durMs // packets per ms
	arch.CyclesPerMs = load*120/100 + 1

	// One warm traced session serves both techniques.
	pl, err := pf(he.App, arch, WithTrace(true))
	if err != nil {
		return nil, err
	}

	sourceBPM := apps.EstimateBPMMedian(he.Up, 250, 4)
	srcBeats := apps.BurstStarts(he.Up, 250, 4)
	techniques := []Partitioner{Pacman, opts.pso(opts.seed())}
	results := engine.Sweep(ctx, opts.engineConfig(), techniques,
		func(ctx context.Context, pt Partitioner) ([]any, error) {
			rep, err := pl.Run(ctx, pt)
			if err != nil {
				return nil, err
			}
			arrival := upChannelArrivals(rep.Deliveries, upNeuron, arch.Crossbars, arch.CyclesPerMs)
			arrTrain := toTrain(arrival)
			est := apps.EstimateBPMMedian(arrTrain, 250, 4)
			errPct := 0.0
			if he.TrueBPM > 0 {
				errPct = abs64(est-he.TrueBPM) / he.TrueBPM * 100
			}
			arrBeats := apps.BurstStarts(arrTrain, 250, 4)
			return []any{rep.Technique, rep.Metrics.ISIAvgCycles, est, errPct,
				apps.BeatIntervalError(srcBeats, arrBeats) * 100, he.TrueBPM, sourceBPM}, nil
		})
	return valuesNamed(results, func(i int) string { return "accuracy " + techniques[i].Name() })
}

// upChannelArrivals reconstructs the UP-channel train as the liquid's
// crossbars receive it: the arrivals (converted back to milliseconds) at
// the destination crossbar receiving the most UP spikes, a duplicate-free
// stream. Destinations are scanned in ascending order, so a tie goes to
// the lowest crossbar ID and the choice is the same on every run.
func upChannelArrivals(deliveries []Delivery, upNeuron int32, crossbars int, cyclesPerMs int64) []int64 {
	byDst := make([][]int64, crossbars)
	for _, d := range deliveries {
		if d.SrcNeuron == upNeuron {
			byDst[d.Dst] = append(byDst[d.Dst], d.ArriveCycle/cyclesPerMs)
		}
	}
	var best []int64
	for _, a := range byDst {
		if len(a) > len(best) {
			best = a
		}
	}
	return best
}

// optimizerRows compares the PSO against simulated annealing, the
// genetic algorithm, greedy and random partitioning on one application —
// the quantitative backing for the paper's §III claim that PSO converges
// faster than GA/SA at comparable quality. Each row is a technique's
// fitness and its solve wall clock.
func optimizerRows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	app, err := apps.Synthetic(AppConfig{Seed: opts.seed(), DurationMs: opts.duration(1000)}, 2, 200)
	if err != nil {
		return nil, err
	}
	pl, err := pf(app, QuadArch(app.Graph))
	if err != nil {
		return nil, err
	}
	// The ablation times the optimizers alone, so it runs Solve against
	// the session's shared problem instance instead of the full pipeline.
	p := pl.Problem()
	// The sweep below is pinned sequential, so — unlike the grid drivers,
	// where the sweep owns the parallelism budget — the PSO gets the whole
	// budget back for its swarm evaluation. Its result is bit-identical at
	// every worker count; only the wall-clock column reflects the change.
	pso := opts.pso(opts.seed())
	pso.Cfg.Workers = 0
	techniques := []Partitioner{
		partition.Random{Seed: opts.seed()},
		Neutrams,
		Pacman,
		GreedyPartitioner,
		partition.KLRefine{Base: partition.Greedy{}},
		partition.Annealing{Seed: opts.seed()},
		partition.Genetic{Seed: opts.seed()},
		pso,
	}
	// This ablation's headline next to Cost is the per-optimizer wall
	// clock, so the techniques must run one at a time: concurrent solves
	// would contend for CPU and inflate each other's timings. The engine
	// still provides per-job timing and timeout; only Workers is pinned.
	cfg := opts.engineConfig()
	cfg.Workers = 1
	results := engine.Sweep(ctx, cfg, techniques,
		func(_ context.Context, pt Partitioner) (*partition.Result, error) {
			return partition.Solve(pt, p)
		})
	rows := make([][]any, 0, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("snnmap: optimizer ablation %s: %w", techniques[i].Name(), r.Err)
		}
		rows = append(rows, []any{r.Value.Technique, r.Value.Cost, r.Elapsed})
	}
	return rows, nil
}

// aerModeRows quantifies the Noxim++ multicast extension: the
// same NEUTRAMS mapping (whose scattered placement gives spikes
// multi-crossbar destination sets, the case multicast exists for)
// replayed with per-synapse, per-crossbar and multicast AER packetization.
func aerModeRows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	app, err := apps.DigitRecognition(AppConfig{Seed: opts.seed(), DurationMs: opts.duration(1000)})
	if err != nil {
		return nil, err
	}
	arch := QuadArch(app.Graph)
	pl, err := pf(app, arch)
	if err != nil {
		return nil, err
	}
	res, err := partition.Solve(Neutrams, pl.Problem())
	if err != nil {
		return nil, err
	}
	modes := []hardware.AERMode{hardware.PerSynapse, hardware.PerCrossbar, hardware.MulticastAER}
	results := engine.Sweep(ctx, opts.engineConfig(), modes,
		func(_ context.Context, mode hardware.AERMode) ([]any, error) {
			a := arch
			a.AER = mode
			nr, err := SimulateTraffic(app.Graph, res.Assign, a)
			if err != nil {
				return nil, err
			}
			return []any{mode.String(), nr.Stats.Injected, nr.Stats.PacketHops,
				nr.Stats.EnergyPJ, nr.Stats.AvgLatency}, nil
		})
	return valuesNamed(results, func(i int) string { return "AER ablation " + modes[i].String() })
}

// topologyRows compares tree and mesh interconnects (NoC-tree as
// in CxQuad versus NoC-mesh as in TrueNorth) under one PSO mapping of
// the image smoothing application. Both interconnects have the same
// crossbar count and size, so they pose one partitioning problem: the PSO
// solves it once, with the sweep's whole parallelism budget (its output
// is the same at every worker count), and each interconnect then places
// and replays that assignment.
func topologyRows(ctx context.Context, pf PipelineFactory, opts ExpOptions) ([][]any, error) {
	app, err := apps.ImageSmoothing(AppConfig{Seed: opts.seed(), DurationMs: opts.duration(1000)})
	if err != nil {
		return nil, err
	}
	base := hardware.ForNeurons(app.Graph.Neurons, 256)
	p, err := NewProblem(app.Graph, base.Crossbars, base.CrossbarSize)
	if err != nil {
		return nil, err
	}
	pso := opts.pso(opts.seed())
	pso.Cfg.Workers = opts.Parallel
	solved, err := valuesNamed(engine.Sweep(ctx, opts.engineConfig(), []*Problem{p},
		func(_ context.Context, p *Problem) (Assignment, error) { return pso.Partition(p) }),
		func(int) string { return "topology ablation PSO" })
	if err != nil {
		return nil, err
	}
	mapping := fixedAssignment{name: pso.Name(), a: solved[0]}
	type variant struct {
		name string
		make func() Arch
	}
	kinds := []variant{
		{"tree", func() Arch { a := base; return a }},
		{"mesh", func() Arch {
			a := hardware.MeshChip(base.Crossbars, base.CrossbarSize)
			a.Energy = base.Energy
			return a
		}},
	}
	results := engine.Sweep(ctx, opts.engineConfig(), kinds,
		func(ctx context.Context, kind variant) ([]any, error) {
			pl, err := pf(app, kind.make())
			if err != nil {
				return nil, err
			}
			rep, err := pl.Run(ctx, mapping)
			if err != nil {
				return nil, err
			}
			return []any{kind.name, rep.GlobalEnergyPJ,
				rep.Metrics.AvgLatencyCycles, rep.Metrics.MaxLatencyCycles}, nil
		})
	return valuesNamed(results, func(i int) string { return "topology ablation " + kinds[i].name })
}

// fixedAssignment is a Partitioner that returns one precomputed
// assignment under the name of the technique that computed it, so a
// solution is placed and replayed on several interconnects without
// being solved again.
type fixedAssignment struct {
	name string
	a    Assignment
}

func (f fixedAssignment) Name() string { return f.name }

func (f fixedAssignment) Partition(*Problem) (Assignment, error) { return f.a.Clone(), nil }

func toTrain(times []int64) []int64 {
	out := make([]int64, len(times))
	copy(out, times)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
