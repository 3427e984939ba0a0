package snnmap

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/partition"
)

// Stage identifies one stage of the mapping pipeline (the paper's Fig. 4):
// partitioning into local and global synapses, placement of logical
// crossbars onto physical interconnect slots, cycle-level interconnect
// simulation of the global traffic, and SNN-metric analysis of the
// delivery trace.
type Stage int

const (
	// StagePartition solves the local/global synapse split (paper §III).
	StagePartition Stage = iota
	// StagePlace relabels logical crossbars onto physical slots.
	StagePlace
	// StageSimulate replays the global traffic on the interconnect.
	StageSimulate
	// StageAnalyze derives the SNN metrics from the delivery trace.
	StageAnalyze
)

// String returns the stage label used in observer output.
func (s Stage) String() string {
	switch s {
	case StagePartition:
		return "partition"
	case StagePlace:
		return "place"
	case StageSimulate:
		return "simulate"
	case StageAnalyze:
		return "analyze"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// StageEvent is delivered to an Observer after each pipeline stage
// completes. Only the payload of the completed stage is populated; the
// payloads are the pipeline's working state, so observers must not mutate
// them.
type StageEvent struct {
	// Stage is the completed stage.
	Stage Stage
	// Technique names the partitioner driving this run.
	Technique string
	// Elapsed is the stage's wall clock.
	Elapsed time.Duration

	// Partition is set after StagePartition.
	Partition *partition.Result
	// Placement is set after StagePlace: the relabelled assignment.
	Placement Assignment
	// NoC is set after StageSimulate. Its Deliveries are empty unless
	// the pipeline keeps the trace (WithTrace, WithSimulate or
	// WithAnalyze); otherwise the run streams its analysis.
	NoC *noc.Result
	// Metrics is set after StageAnalyze.
	Metrics *MetricsReport
}

// Observer receives stage-completion events from a pipeline run. OnStage
// is called synchronously from Run, in stage order; when several runs
// share one pipeline concurrently (Compare, RunSeeds), events from
// different runs interleave, so implementations must be safe for
// concurrent calls and should key on Technique to separate runs.
type Observer interface {
	OnStage(ev StageEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev StageEvent)

// OnStage implements Observer.
func (f ObserverFunc) OnStage(ev StageEvent) { f(ev) }

// HopFunc returns the link distance between two physical crossbar slots.
type HopFunc func(a, b int) (int, error)

// PlaceFunc overrides the placement stage: given the problem, the
// partitioner's assignment and the interconnect hop distances, it returns
// the relabelled assignment to simulate. IdentityPlacement skips
// placement; the default is partition.PlaceCrossbars.
type PlaceFunc func(p *Problem, a Assignment, hop HopFunc) (Assignment, error)

// IdentityPlacement is a PlaceFunc that keeps the partitioner's crossbar
// labels — mapping without the placement stage, e.g. to measure the
// placement stage's own contribution.
func IdentityPlacement(_ *Problem, a Assignment, _ HopFunc) (Assignment, error) {
	return a, nil
}

// SimulateFunc overrides the interconnect-simulation stage. The simulator
// is freshly Reset and owned by the call.
type SimulateFunc func(sim *noc.Simulator, g *SpikeGraph, assign Assignment, arch Arch) (*noc.Result, error)

// AnalyzeFunc overrides the metric-analysis stage.
type AnalyzeFunc func(deliveries []Delivery, durationMs int64) MetricsReport

// pipelineOptions is the resolved functional-option state of a Pipeline.
type pipelineOptions struct {
	keepTrace bool
	timeout   time.Duration
	workers   int
	observer  Observer
	place     PlaceFunc
	simulate  SimulateFunc
	analyze   AnalyzeFunc
}

// Option configures a Pipeline at construction.
type Option func(*pipelineOptions)

// WithTrace retains the raw delivery trace on every Report the pipeline
// produces (needed by the heartbeat accuracy experiment).
func WithTrace(keep bool) Option {
	return func(o *pipelineOptions) { o.keepTrace = keep }
}

// WithStreamingDelivery is a no-op kept for source compatibility.
//
// Deprecated: streaming analysis is automatic. Every run whose delivery
// trace has no other consumer (no WithTrace, WithSimulate or WithAnalyze)
// computes its metrics from a metrics.Accumulator fed by the simulator's
// delivery sink and never allocates the trace.
func WithStreamingDelivery(bool) Option {
	return func(*pipelineOptions) {}
}

// WithTimeout bounds each Run's wall clock. The limit is cooperative:
// it is checked between stages (partitioners do not take a context), so a
// run can overshoot by at most one stage.
func WithTimeout(d time.Duration) Option {
	return func(o *pipelineOptions) { o.timeout = d }
}

// WithWorkers bounds the worker pool of the pipeline's own sweeps
// (Compare, RunSeeds). 0 selects GOMAXPROCS; 1 runs sequentially.
func WithWorkers(n int) Option {
	return func(o *pipelineOptions) { o.workers = n }
}

// WithObserver registers an observer for stage-completion events.
func WithObserver(obs Observer) Option {
	return func(o *pipelineOptions) { o.observer = obs }
}

// WithPlacement overrides the placement stage (nil restores the default,
// partition.PlaceCrossbars).
func WithPlacement(f PlaceFunc) Option {
	return func(o *pipelineOptions) { o.place = f }
}

// WithSimulate overrides the interconnect-simulation stage (nil restores
// the default cycle-level replay).
func WithSimulate(f SimulateFunc) Option {
	return func(o *pipelineOptions) { o.simulate = f }
}

// WithAnalyze overrides the metric-analysis stage (nil restores
// metrics.Analyze).
func WithAnalyze(f AnalyzeFunc) Option {
	return func(o *pipelineOptions) { o.analyze = f }
}

// Pipeline is a warm mapping session for one (application, architecture)
// pair: the expensive per-pair state — the spike graph's CSR adjacency,
// the partitioning problem instance (in-adjacency, spike counts), the
// interconnect topology and route table, and the local-activity
// characterization — is built once by NewPipeline and then serves any
// number of Run/RunSeeds/Compare calls, concurrently if desired. It is
// the unit of reuse a sweep (or a future mapping server) holds per grid
// cell instead of paying construction on every run.
//
// Every run draws a simulator from an internal pool (forked from the
// session prototype, sharing its immutable topology and route table), so
// concurrent runs never contend on simulator state and a warm session's
// reports stay byte-identical to those of single-use sessions.
type Pipeline struct {
	app  *App
	arch Arch
	opts pipelineOptions

	problem *Problem
	counts  []int64 // per-neuron spike counts, shared across runs

	proto     *noc.Simulator
	sims      sync.Pool
	singleton []noc.Mask // prefilled destination-mask table, shared by every run
}

// NewPipeline builds a warm mapping session for the application and
// architecture. The returned pipeline is safe for concurrent use.
func NewPipeline(app *App, arch Arch, opts ...Option) (*Pipeline, error) {
	if app == nil || app.Graph == nil {
		return nil, errors.New("snnmap: nil application")
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	pl := &Pipeline{app: app, arch: arch}
	for _, opt := range opts {
		opt(&pl.opts)
	}
	var err error
	pl.problem, err = partition.NewProblem(app.Graph, arch.Crossbars, arch.CrossbarSize)
	if err != nil {
		return nil, err
	}
	pl.proto, err = noc.NewSimulator(arch.NoCConfig())
	if err != nil {
		return nil, err
	}
	app.Graph.CSR() // force the memoized adjacency build into the session setup
	pl.counts = app.Graph.SpikeCounts()
	pl.singleton = newSingletonTable(arch.Crossbars)
	pl.sims.New = func() any { return pl.proto.Fork() }
	pl.sims.Put(pl.proto)
	return pl, nil
}

// NewPipelineByName is NewPipeline with both inputs resolved from the
// registries: the application from the application registry (any spec
// BuildApp accepts, including parameterized "gen:..." scenario families)
// and the architecture from the architecture registry, sized for the built
// graph. It is the one-call session constructor the CLIs and scenario
// sweeps use.
func NewPipelineByName(appName string, appCfg AppConfig, archName string, archSpec ArchSpec, opts ...Option) (*Pipeline, error) {
	app, err := BuildApp(appName, appCfg)
	if err != nil {
		return nil, err
	}
	arch, err := NewArch(archName, app.Graph, archSpec)
	if err != nil {
		return nil, err
	}
	return NewPipeline(app, arch, opts...)
}

// App returns the session's application.
func (pl *Pipeline) App() *App { return pl.app }

// Arch returns the session's architecture.
func (pl *Pipeline) Arch() Arch { return pl.arch }

// Problem returns the session's partitioning instance, shared by every
// run. It is immutable after construction and safe for concurrent
// Cost/CostDelta evaluation.
func (pl *Pipeline) Problem() *Problem { return pl.problem }

func (pl *Pipeline) observe(extra Observer, ev StageEvent) {
	if pl.opts.observer != nil {
		pl.opts.observer.OnStage(ev)
	}
	if extra != nil {
		extra.OnStage(ev)
	}
}

// Run executes the staged pipeline for one partitioning technique and
// returns the same Report a single-use session would — byte-identical for
// identical inputs, with the per-pair setup amortized across the session
// (see TestPipelineWarmMatchesCold).
//
// Cancellation: besides the between-stage checks, ctx is threaded into
// the placement descent (per 2-opt row) and the interconnect replay (per
// event batch), so canceling a run — a server's per-request timeout, a
// client disconnect — returns within a small fraction of one stage, not
// after the whole replay (see TestPipelineCancelMidRun).
func (pl *Pipeline) Run(ctx context.Context, pt Partitioner) (*Report, error) {
	return pl.RunObserved(ctx, pt, nil)
}

// RunObserved is Run with an additional per-call observer, invoked after
// the session-wide WithObserver one. It is the hook a shared warm session
// needs when each caller wants its own stage-progress stream (e.g. one
// SSE feed per job on a pipeline held in a server's session pool):
// pipelines are pooled per (app, arch) while observers stay per request.
func (pl *Pipeline) RunObserved(ctx context.Context, pt Partitioner, obs Observer) (*Report, error) {
	sim := pl.sims.Get().(*noc.Simulator)
	defer pl.sims.Put(sim)
	return pl.runWith(ctx, sim, &trafficScratch{singleton: pl.singleton}, pt, obs)
}

// runWith is the staged run on a caller-provided simulator and injection
// scratch. It is the common core of RunObserved (which draws both from
// the session pool per call) and RunSeeds (which holds one of each per
// sweep worker across a whole seed chunk).
//
// The analysis route follows from who else consumes the delivery trace:
// with no WithTrace, WithSimulate or WithAnalyze, the simulator streams
// every delivery into a metrics.Accumulator and the trace is never
// built; otherwise the trace is kept and metrics.Analyze (or the
// caller's stage) reads it. Both routes report bit-identical metrics
// (see TestPipelineStreamingMatchesTrace).
func (pl *Pipeline) runWith(ctx context.Context, sim *noc.Simulator, sc *trafficScratch, pt Partitioner, obs Observer) (*Report, error) {
	if pt == nil {
		return nil, errors.New("snnmap: nil partitioner")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if pl.opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pl.opts.timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("snnmap: pipeline run not started: %w", err)
	}

	// Stage 1 — partition.
	start := time.Now()
	res, err := partition.Solve(pt, pl.problem)
	if err != nil {
		return nil, err
	}
	pl.observe(obs, StageEvent{Stage: StagePartition, Technique: res.Technique, Elapsed: time.Since(start), Partition: res})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("snnmap: %s: aborted after partition: %w", res.Technique, err)
	}

	// Stage 2 — place.
	start = time.Now()
	place := pl.opts.place
	if place == nil {
		place = func(p *Problem, a Assignment, hop HopFunc) (Assignment, error) {
			return partition.PlaceCrossbarsCtx(ctx, p, a, hop)
		}
	}
	// res is never mutated after the StagePartition event, so an observer
	// retaining it keeps the partitioner's raw assignment to compare
	// against the placed one.
	placed, err := place(pl.problem, res.Assign, sim.HopDistance)
	if err != nil {
		return nil, err
	}
	pl.observe(obs, StageEvent{Stage: StagePlace, Technique: res.Technique, Elapsed: time.Since(start), Placement: placed})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("snnmap: %s: aborted after placement: %w", res.Technique, err)
	}

	rep := &Report{
		AppName:       pl.app.Name,
		Technique:     res.Technique,
		ArchName:      pl.arch.Name,
		Neurons:       pl.app.Graph.Neurons,
		Synapses:      len(pl.app.Graph.Synapses),
		Assignment:    placed,
		GlobalTraffic: res.Cost,
	}
	rep.GlobalSynapseCount = pl.problem.GlobalSynapseCount(placed)
	rep.LocalSynapseCount = rep.Synapses - rep.GlobalSynapseCount

	local, err := hardware.LocalActivityCounts(pl.app.Graph, pl.counts, placed, pl.arch)
	if err != nil {
		return nil, err
	}
	rep.LocalEvents = local.Events
	rep.LocalEnergyPJ = local.EnergyPJ

	// Stage 3 — simulate.
	start = time.Now()
	simulate := pl.opts.simulate
	if simulate == nil {
		simulate = sc.injectAndRun
	}
	sim.Reset()
	if ctx.Done() != nil {
		// A cancelable run threads its context into the replay's event
		// loop; sims without one skip the polling entirely.
		sim.SetContext(ctx)
	}
	var acc *metrics.Accumulator
	if !pl.opts.keepTrace && pl.opts.simulate == nil && pl.opts.analyze == nil {
		acc = metrics.NewAccumulator()
		sim.SetDeliverySink(acc.Add)
	}
	nocRes, err := simulate(sim, pl.app.Graph, placed, pl.arch)
	if err != nil {
		return nil, err
	}
	rep.NoC = nocRes.Stats
	rep.GlobalEnergyPJ = nocRes.Stats.EnergyPJ
	rep.TotalEnergyPJ = rep.LocalEnergyPJ + rep.GlobalEnergyPJ
	pl.observe(obs, StageEvent{Stage: StageSimulate, Technique: res.Technique, Elapsed: time.Since(start), NoC: nocRes})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("snnmap: %s: aborted after simulation: %w", res.Technique, err)
	}

	// Stage 4 — analyze.
	start = time.Now()
	if acc != nil {
		rep.Metrics = acc.Report(pl.app.Graph.DurationMs)
	} else {
		analyze := pl.opts.analyze
		if analyze == nil {
			analyze = metrics.Analyze
		}
		rep.Metrics = analyze(nocRes.Deliveries, pl.app.Graph.DurationMs)
	}
	pl.observe(obs, StageEvent{Stage: StageAnalyze, Technique: res.Technique, Elapsed: time.Since(start), Metrics: &rep.Metrics})

	if pl.opts.keepTrace {
		rep.Deliveries = nocRes.Deliveries
	}
	return rep, nil
}

// engineConfig derives the engine configuration of the pipeline's own
// sweeps. The per-run timeout is enforced inside Run (cooperatively), not
// by abandoning engine jobs, so warm simulators are never left mid-replay.
func (pl *Pipeline) engineConfig() engine.Config {
	return engine.Config{Workers: pl.opts.workers}
}

// Compare runs several techniques through the warm session as one engine
// sweep (WithWorkers bounds the pool) and returns reports in technique
// order. Per-technique failures are aggregated: the returned error joins
// every failing technique's error rather than reporting only the first.
func (pl *Pipeline) Compare(ctx context.Context, techniques []Partitioner) ([]*Report, error) {
	results := engine.Sweep(ctx, pl.engineConfig(), techniques,
		func(ctx context.Context, pt Partitioner) (*Report, error) {
			return pl.Run(ctx, pt)
		})
	out := make([]*Report, len(results))
	var errs []error
	for i, r := range results {
		if r.Err != nil {
			name := "<nil>"
			if techniques[i] != nil {
				name = techniques[i].Name()
			}
			errs = append(errs, fmt.Errorf("snnmap: %s on %s: %w", name, pl.app.Name, r.Err))
			continue
		}
		out[i] = r.Value
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// RunSeeds fans one stochastic technique out across seeds: the technique
// is re-seeded per entry (via partition.Seeded) and the seeds are split
// into one contiguous chunk per sweep worker (WithWorkers bounds the
// pool). Each chunk runs on a single simulator and injection scratch held
// for the whole chunk, so every seed after the first reuses the
// simulator's flight free-list and the scratch's multiplicity table.
// Reports are bit-identical to running each seed through Run and are
// returned in seed order (see TestRunSeedsMatchesRun); per-seed failures
// are aggregated into one joined error. Deterministic techniques do not
// implement Seeded and are rejected — running them per seed would just
// repeat one result.
func (pl *Pipeline) RunSeeds(ctx context.Context, pt Partitioner, seeds []int64) ([]*Report, error) {
	if pt == nil {
		return nil, errors.New("snnmap: nil partitioner")
	}
	seeded, ok := pt.(partition.Seeded)
	if !ok {
		return nil, fmt.Errorf("snnmap: %s is deterministic (does not implement partition.Seeded); RunSeeds would repeat one result", pt.Name())
	}
	cfg := pl.engineConfig()
	k := cfg.Size()
	if k > len(seeds) {
		k = len(seeds)
	}
	type chunk struct{ lo, hi int }
	chunks := make([]chunk, 0, k)
	for i := 0; i < k; i++ {
		if lo, hi := i*len(seeds)/k, (i+1)*len(seeds)/k; lo < hi {
			chunks = append(chunks, chunk{lo, hi})
		}
	}
	type seedOut struct {
		rep *Report
		err error
	}
	results := engine.Sweep(ctx, cfg, chunks,
		func(ctx context.Context, c chunk) ([]seedOut, error) {
			sim := pl.sims.Get().(*noc.Simulator)
			defer pl.sims.Put(sim)
			sc := &trafficScratch{singleton: pl.singleton}
			outs := make([]seedOut, 0, c.hi-c.lo)
			for i := c.lo; i < c.hi; i++ {
				rep, err := pl.runWith(ctx, sim, sc, seeded.Reseed(seeds[i]), nil)
				outs = append(outs, seedOut{rep, err})
			}
			return outs, nil
		})
	out := make([]*Report, len(seeds))
	var errs []error
	for ci, r := range results {
		c := chunks[ci]
		if r.Err != nil {
			// The whole chunk was never run (cancellation before dispatch,
			// or a panic captured by the engine): attribute it to each seed.
			for i := c.lo; i < c.hi; i++ {
				errs = append(errs, fmt.Errorf("snnmap: %s seed %d on %s: %w", pt.Name(), seeds[i], pl.app.Name, r.Err))
			}
			continue
		}
		for j, so := range r.Value {
			if so.err != nil {
				errs = append(errs, fmt.Errorf("snnmap: %s seed %d on %s: %w", pt.Name(), seeds[c.lo+j], pl.app.Name, so.err))
				continue
			}
			out[c.lo+j] = so.rep
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}
