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
	// NoC is set after StageSimulate. Its Deliveries are the kept trace
	// under WithTrace and empty otherwise.
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

// pipelineOptions is the resolved functional-option state of a Pipeline.
type pipelineOptions struct {
	keepTrace bool
	timeout   time.Duration
	workers   int
	observer  Observer
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
// Deprecated: streaming analysis is automatic. Every run computes its
// metrics from a metrics.Accumulator, fed by the simulator's delivery
// sink or, under WithTrace, from the trace the run keeps.
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

// Pipeline is a warm mapping session for one (application, architecture)
// pair: the expensive per-pair state — the partitioning problem instance
// (spike counts and the fitness's neuron lists), the interconnect
// topology and route table, and the local-activity characterization — is
// built once by NewPipeline and then serves any number of
// Run/RunSeeds/Compare calls, concurrently if desired. It is the unit of
// reuse a sweep (or a future mapping server) holds per grid cell instead
// of paying construction on every run. The spike graph's out- and
// in-adjacency are per graph, not per session: the CSR is the graph's
// synapse form and the graph memoizes the in-adjacency on first use, so
// every session and problem over one graph shares them.
//
// Every run draws a replay context from an internal pool — a simulator
// forked from the session prototype (sharing its immutable topology and
// route table), its injection scratch and its metrics accumulator — so
// concurrent runs never contend on replay state and a warm session's
// reports stay byte-identical to those of single-use sessions.
type Pipeline struct {
	app  *App
	arch Arch
	opts pipelineOptions

	problem *Problem
	counts  []int64 // per-neuron spike counts, shared across runs

	proto     *noc.Simulator
	replays   sync.Pool  // of *replay
	singleton []noc.Mask // prefilled destination-mask table, shared by every run
}

// replay is the pooled per-run interconnect context of a session: the
// simulator, the scratch that injects traffic into it, and the
// accumulator its delivery sink feeds. A run holds one exclusively, and
// everything in it is reset, not reallocated, by the next run.
type replay struct {
	sim *noc.Simulator
	sc  trafficScratch
	acc metrics.Accumulator
	add func(noc.Delivery) // acc.Add, bound once so setting the sink allocates nothing
}

func (pl *Pipeline) newReplay(sim *noc.Simulator) *replay {
	r := &replay{sim: sim, sc: trafficScratch{singleton: pl.singleton}}
	r.add = r.acc.Add
	return r
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
	pl.counts = app.Graph.SpikeCounts()
	pl.singleton = newSingletonTable(arch.Crossbars)
	pl.replays.New = func() any { return pl.newReplay(pl.proto.Fork()) }
	pl.replays.Put(pl.newReplay(pl.proto))
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
	r := pl.replays.Get().(*replay)
	defer pl.replays.Put(r)
	return pl.runWith(ctx, r, pt, obs)
}

// runWith is the staged run on a replay context held for the whole run.
// The simulator streams every delivery, in arrival order, into the
// context's accumulator, which yields the run's metrics. Under WithTrace
// the simulator instead keeps the trace (allocated once, at its exact
// size) and the analyze stage folds it through the same accumulator in
// the same order, so a traced run is analyzed exactly like an untraced
// one (see TestPipelineStreamingMatchesTrace).
func (pl *Pipeline) runWith(ctx context.Context, r *replay, pt Partitioner, obs Observer) (*Report, error) {
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
	// res is never mutated after the StagePartition event, so an observer
	// retaining it keeps the partitioner's raw assignment to compare
	// against the placed one.
	placed, err := partition.PlaceCrossbarsCtx(ctx, pl.problem, res.Assign, r.sim.HopDistance)
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
		Synapses:      len(pl.app.Graph.CSR.Post),
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
	sim := r.sim
	sim.Reset()
	if ctx.Done() != nil {
		// A cancelable run threads its context into the replay's event
		// loop; sims without one skip the polling entirely.
		sim.SetContext(ctx)
	}
	r.acc.Reset(pl.arch.Crossbars)
	if !pl.opts.keepTrace {
		sim.SetDeliverySink(r.add)
	}
	nocRes, err := r.sc.injectAndRun(sim, pl.app.Graph, placed, pl.arch)
	if err != nil {
		return nil, err
	}
	rep.Deliveries = nocRes.Deliveries
	rep.NoC = nocRes.Stats
	rep.GlobalEnergyPJ = nocRes.Stats.EnergyPJ
	rep.TotalEnergyPJ = rep.LocalEnergyPJ + rep.GlobalEnergyPJ
	pl.observe(obs, StageEvent{Stage: StageSimulate, Technique: res.Technique, Elapsed: time.Since(start), NoC: nocRes})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("snnmap: %s: aborted after simulation: %w", res.Technique, err)
	}

	// Stage 4 — analyze. A traced run folds its kept trace, in emission
	// order, through the same accumulator the sink feeds.
	start = time.Now()
	for _, d := range rep.Deliveries {
		r.acc.Add(d)
	}
	rep.Metrics = r.acc.Report(pl.app.Graph.DurationMs)
	pl.observe(obs, StageEvent{Stage: StageAnalyze, Technique: res.Technique, Elapsed: time.Since(start), Metrics: &rep.Metrics})
	return rep, nil
}

// Compare runs several techniques through the warm session as one engine
// sweep (WithWorkers bounds the pool) and returns reports in technique
// order. Per-technique failures are aggregated: the returned error joins
// every failing technique's error rather than reporting only the first.
func (pl *Pipeline) Compare(ctx context.Context, techniques []Partitioner) ([]*Report, error) {
	return pl.sweep(ctx, techniques, func(i int) string {
		if techniques[i] == nil {
			return "<nil>"
		}
		return techniques[i].Name()
	})
}

// RunSeeds fans one stochastic technique out across seeds: the technique
// is re-seeded per entry (via partition.Seeded) and the re-seeded
// techniques run as one engine sweep of Run (WithWorkers bounds the
// pool). Every run draws a replay context from the session pool, so each
// seed after a worker's first replays on a warm simulator and scratch.
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
	pts := make([]Partitioner, len(seeds))
	for i, s := range seeds {
		pts[i] = seeded.Reseed(s)
	}
	return pl.sweep(ctx, pts, func(i int) string {
		return fmt.Sprintf("%s seed %d", pt.Name(), seeds[i])
	})
}

// sweep runs the techniques through Run as one engine sweep and returns
// the reports in input order, or one error joining every failed run's,
// each prefixed "snnmap: <label(i)> on <app>". The per-run timeout is
// enforced inside Run (cooperatively), not by abandoning engine jobs, so
// pooled replay contexts are never left mid-replay.
func (pl *Pipeline) sweep(ctx context.Context, pts []Partitioner, label func(i int) string) ([]*Report, error) {
	results := engine.Sweep(ctx, engine.Config{Workers: pl.opts.workers}, pts, pl.Run)
	out := make([]*Report, len(results))
	var errs []error
	for i, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("snnmap: %s on %s: %w", label(i), pl.app.Name, r.Err))
			continue
		}
		out[i] = r.Value
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}
