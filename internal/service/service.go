// Package service is the mapping-as-a-service layer of this
// reproduction: a long-lived HTTP/JSON daemon (cmd/snnmapd) that accepts
// mapping jobs — {app, arch, techniques, seed, AER mode, options}
// resolved through the library registries — executes them on a bounded
// worker pool with per-job timeouts, and serves results as the
// serializable Table wire type (JSON or CSV).
//
// Two layers make repeat traffic cheap, exploiting invariants earlier
// PRs pinned:
//
//   - a warm-session pool: constructed Pipelines cached per canonical
//     (app, arch, options) session key, so repeat traffic skips
//     characterization/CSR/NoC construction and forks simulators from
//     one warm session (sessionPool);
//   - a content-addressed result cache: canonical job specs are
//     deterministic end to end, so a completed Table is cached under the
//     SHA-256 of its spec and replayed bit-identically for identical
//     requests (resultCache).
//
// Endpoints: POST /v1/jobs (async submission), GET /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/result (?format=json|csv or
// Accept), GET /v1/jobs/{id}/events (SSE stage progress),
// DELETE /v1/jobs/{id} (cancel), /healthz, /metrics (Prometheus text),
// GET /v1/version. The handler layer is a plain ServeMux, fully
// exercisable with httptest.
package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	snnmap "repro"
	"repro/internal/buildinfo"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Config parameterizes the daemon.
type Config struct {
	// Workers bounds the job executor pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the accepted-but-unstarted job backlog; beyond
	// it, submissions are shed with 429 + Retry-After (default 64).
	QueueDepth int
	// TenantDepth bounds one tenant's share of the backlog (tenants are
	// the X-Tenant request header; default QueueDepth, i.e. no extra
	// restriction). Workers drain tenant lanes round-robin, so a tenant
	// flooding its lane delays only itself.
	TenantDepth int
	// JobTimeout bounds each job's wall clock; 0 means none. Timed-out
	// jobs fail with a deadline error; the pipeline observes the
	// cancellation within one placement row or replay event batch.
	JobTimeout time.Duration
	// SessionCap bounds the warm-session pool (default 8 sessions).
	SessionCap int
	// CacheCap bounds the result cache (default 256 tables).
	CacheCap int
	// PipelineWorkers bounds intra-job parallelism handed to pipeline
	// construction; the daemon's default of 1 keeps one job ≈ one core
	// so the executor pool is the only concurrency knob.
	PipelineWorkers int
	// FetchPeer, when set, is the second tier of the result cache: on a
	// local miss the submit path asks it for the content address before
	// queueing a recompute. The fleet layer implements it as a GET
	// /v1/cache/{hash} against the consistent-hash owner of the address
	// (internal/fleet.NewPeerFetcher); a nil hook keeps the node
	// single-tier. The hook must be safe for concurrent use and should
	// bound its own latency — it sits on the submission path.
	FetchPeer func(ctx context.Context, hash string) (*snnmap.Table, bool)
	// TracingDisabled turns off span recording entirely: no recorder is
	// allocated, every span handle is nil, and GET /v1/jobs/{id}/trace
	// answers 404. The zero value keeps tracing on — observability is
	// the default, opting out is the deployment decision.
	TracingDisabled bool
	// TraceCap bounds the span ring recorder (default obs.DefaultCap).
	TraceCap int
	// Log is the structured logger for job lifecycle anomalies. Lines
	// carry job_id/trace_id so they join against traces and the SSE
	// stream. Nil means silent — a library must not write to process
	// output unasked (and go test interleaves a binary's stderr into
	// benchmark stdout, so a chatty default would corrupt bench
	// artifacts); cmd/snnmapd passes slog.Default().
	Log *slog.Logger
	// Now is the clock (tests inject a fixed one; default time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantDepth <= 0 || c.TenantDepth > c.QueueDepth {
		c.TenantDepth = c.QueueDepth
	}
	if c.SessionCap <= 0 {
		c.SessionCap = 8
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 256
	}
	if c.PipelineWorkers == 0 {
		c.PipelineWorkers = 1
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is one daemon instance: job store, executor, session pool,
// result cache, metrics and the HTTP handler layer. Create with New,
// serve via Handler, stop via Drain.
type Server struct {
	cfg     Config
	store   *jobStore
	pool    *sessionPool
	cache   *resultCache
	metrics *metrics
	info    buildinfo.Info
	idem    *idemStore
	// tracer records finished spans; nil when Config.TracingDisabled.
	tracer *obs.Recorder

	queue   *fairQueue
	workers sync.WaitGroup

	// submitMu serializes submissions against drain: once draining, no
	// sender can race the queue close.
	submitMu sync.Mutex
	draining bool

	// baseCtx parents every job context; baseCancel aborts running jobs
	// when the drain deadline expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		store: newJobStore(),
		cache: newResultCache(cfg.CacheCap),
		info:  buildinfo.Read(),
		idem:  &idemStore{entries: newLRU[idemEntry](1024)},
		queue: newFairQueue(cfg.QueueDepth, cfg.TenantDepth),
	}
	if !cfg.TracingDisabled {
		s.tracer = obs.NewRecorder(cfg.TraceCap)
	}
	s.pool = newSessionPool(cfg.SessionCap, func(spec snnmap.JobSpec) (*snnmap.Pipeline, error) {
		// Job results are aggregate tables, so no option asks for the
		// delivery trace and every replay streams into the metrics.
		return snnmap.NewSessionPipeline(spec, snnmap.WithWorkers(cfg.PipelineWorkers))
	})
	s.metrics = newMetrics(
		func() int64 { return int64(s.cache.len()) },
		func() int64 { return int64(s.pool.len()) })
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				g, ok := s.queue.pop()
				if !ok {
					return
				}
				s.runGroup(g)
			}
		}()
	}
	return s
}

// groupSession carries one work group's warm session across its jobs, so
// a batch resolves the session pool once however many jobs it holds (and
// however much LRU pressure concurrent groups apply). A failed fetch is
// not memoized: each job retries the build, matching the single-job
// path.
type groupSession struct {
	pipe    *snnmap.Pipeline
	fetched bool
}

// sessionFor resolves the group's warm session, hitting the pool only
// for the group's first job.
func (s *Server) sessionFor(j *job, gs *groupSession) (pipe *snnmap.Pipeline, warm bool, err error) {
	if gs.fetched {
		return gs.pipe, true, nil
	}
	pipe, warm, evicted, err := s.pool.get(j.spec)
	countLookup(warm, s.metrics.poolHits, s.metrics.poolMisses)
	s.metrics.poolEvictions.Add(int64(evicted))
	if err != nil {
		return nil, false, err
	}
	gs.pipe, gs.fetched = pipe, true
	return pipe, warm, nil
}

// runGroup executes one dequeued work group: the jobs share a session
// key, so the warm session is resolved once and every job runs on it
// back to back on this worker.
func (s *Server) runGroup(g *workGroup) {
	gs := &groupSession{}
	for _, j := range g.jobs {
		s.runJob(j, gs)
	}
}

// runJob executes one job through the group's warm session on the
// experiment engine (per-job timeout, panic capture) and finishes it.
func (s *Server) runJob(j *job, gs *groupSession) {
	jctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !s.store.markRunning(j, s.cfg.Now(), cancel) {
		// Canceled while queued.
		s.metrics.jobsQueued.Add(-1)
		s.metrics.jobFinished(JobCanceled, false)
		j.trace.finish(JobCanceled, "canceled while queued")
		j.events.append("state", statePayload{State: JobCanceled})
		j.events.close()
		return
	}
	s.metrics.jobsQueued.Add(-1)
	s.metrics.jobsRunning.Add(1)
	j.trace.dequeued()
	j.events.append("state", statePayload{State: JobRunning})

	// One engine sweep of one job: the engine contributes the per-job
	// timeout and panic→error capture every other sweep in this module
	// already relies on. The run span wraps the sweep and carries the
	// engine's queue-wait vs. run split.
	jctx = obs.ContextWith(jctx, j.trace.rootSpan())
	_, runSp := obs.StartChild(jctx, "run")
	results := engine.Sweep(jctx, engine.Config{Workers: 1, Timeout: s.cfg.JobTimeout},
		[]*job{j}, func(ctx context.Context, j *job) (*snnmap.Table, error) {
			return s.execute(obs.ContextWith(ctx, runSp), j, gs)
		})
	table, err := results[0].Value, results[0].Err
	runSp.SetAttr(
		obs.DurationAttr("engine_wait", results[0].Wait),
		obs.DurationAttr("engine_run", results[0].Elapsed),
	)
	runSp.End()

	now := s.cfg.Now()
	switch {
	case err == nil:
		s.cache.put(j.hash, table)
		st := s.store.finish(j, JobDone, table, "", now)
		s.metrics.executed.Inc()
		s.metrics.jobFinished(JobDone, true)
		j.trace.finish(JobDone, "")
		j.events.append("state", statePayload{State: st.State})
	case jctx.Err() != nil:
		// The job context itself fired: a client DELETE or the drain
		// deadline. Per-job timeouts fire the engine's child context
		// instead and land in the failed branch with a deadline error.
		st := s.store.finish(j, JobCanceled, nil, err.Error(), now)
		s.metrics.jobFinished(JobCanceled, true)
		j.trace.finish(JobCanceled, st.Error)
		s.cfg.Log.Info("job canceled",
			"job_id", j.id, "trace_id", j.trace.traceID().String(), "error", st.Error)
		j.events.append("state", statePayload{State: st.State, Error: st.Error})
	default:
		st := s.store.finish(j, JobFailed, nil, err.Error(), now)
		s.metrics.jobFinished(JobFailed, true)
		j.trace.finish(JobFailed, st.Error)
		s.cfg.Log.Warn("job failed",
			"job_id", j.id, "trace_id", j.trace.traceID().String(), "error", st.Error)
		j.events.append("state", statePayload{State: st.State, Error: st.Error})
	}
	j.events.close()
}

// execute runs the job's technique sweep (or seed sweep) on its
// warm session.
func (s *Server) execute(ctx context.Context, j *job, gs *groupSession) (*snnmap.Table, error) {
	_, sessSp := obs.StartChild(ctx, "session")
	pipe, warm, err := s.sessionFor(j, gs)
	sessSp.SetAttr(obs.String("key", j.spec.SessionKey()), obs.Bool("warm", warm))
	sessSp.End()
	if err != nil {
		return nil, fmt.Errorf("building session: %w", err)
	}
	j.events.append("session", map[string]any{"key": j.spec.SessionKey(), "warm": warm})

	pts, err := j.spec.Partitioners()
	if err != nil {
		return nil, err
	}

	if len(j.spec.TechSeeds) > 0 {
		// Seed sweep: the single technique re-seeded per entry through
		// Pipeline.RunSeeds — every seed runs on a pooled replay context
		// of the warm session, one report row per seed. The sweep has
		// no per-run observer, so the SSE stream carries a single sweep
		// event instead of per-stage ones and the trace a single sweep
		// span instead of stage spans.
		j.events.append("sweep", map[string]any{
			"technique": j.spec.Techniques[0], "seeds": len(j.spec.TechSeeds)})
		_, sweepSp := obs.StartChild(ctx, "sweep")
		sweepSp.SetAttr(
			obs.String("technique", j.spec.Techniques[0]),
			obs.Int("seeds", len(j.spec.TechSeeds)))
		reports, err := pipe.RunSeeds(ctx, pts[0], j.spec.TechSeeds)
		sweepSp.End()
		if err != nil {
			return nil, err
		}
		return snnmap.NewReportTable(reports...)
	}
	// Techniques run sequentially within a job — the executor pool is
	// the concurrency knob — so each job's SSE stream stays in stage
	// order per technique, and the observer can hang stage spans off the
	// current technique span without synchronization.
	var techSp *obs.Span
	observer := snnmap.ObserverFunc(func(ev snnmap.StageEvent) {
		// The stage span and the histogram observation share one
		// duration, so metrics and traces agree by construction.
		stageSpan(techSp, ev)
		s.metrics.stageSeconds.Observe(ev.Stage.String(), ev.Elapsed.Seconds())
		j.events.append("stage", stagePayload(ev))
	})
	reports := make([]*snnmap.Report, 0, len(pts))
	for i, pt := range pts {
		_, techSp = obs.StartChild(ctx, "technique")
		techSp.SetAttr(obs.String("technique", j.spec.Techniques[i]))
		rep, err := pipe.RunObserved(ctx, pt, observer)
		techSp.End()
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return snnmap.NewReportTable(reports...)
}

// CacheHas reports whether the content address is in the local result
// cache, without touching recency. Exported for the fleet's join-time
// cache warmer.
func (s *Server) CacheHas(hash string) bool { return s.cache.has(hash) }

// CachePut stores a table under its content address in the local result
// cache (first writer wins; determinism makes duplicates identical).
// Exported for the fleet's join-time cache warmer.
func (s *Server) CachePut(hash string, table *snnmap.Table) { s.cache.put(hash, table) }

// Drain stops the daemon gracefully: submissions are rejected from the
// moment it is called, queued and running jobs are given until ctx
// expires to finish, and past the deadline running jobs are canceled
// (the pipeline's cancellation latency bounds how long they linger).
// Drain returns nil when every worker exited.
func (s *Server) Drain(ctx context.Context) error {
	s.submitMu.Lock()
	s.draining = true
	s.submitMu.Unlock()
	s.cfg.Log.Info("draining", "backlog", s.queue.backlog())
	s.queue.close()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // abort running jobs; they observe within one event batch
		<-done
		return ctx.Err()
	}
}

// Kill hard-stops the server with no drain handshake, approximating a
// SIGKILLed worker for chaos tests: admission closes, running jobs'
// contexts are canceled immediately (queued jobs observe the canceled
// base context before doing any work), and Kill returns once every
// worker goroutine exited. Unlike Drain, nothing is given time to finish
// — a killed node never completes (or caches) a result after its death,
// which is the idempotency property the fleet's requeue path relies on.
func (s *Server) Kill() {
	s.submitMu.Lock()
	s.draining = true
	s.submitMu.Unlock()
	s.queue.close()
	s.baseCancel()
	s.workers.Wait()
}

// Stats is a point-in-time snapshot of the daemon's internal counters,
// exported for tests and introspection (the Prometheus endpoint is the
// operational surface).
type Stats struct {
	CacheHits, CacheMisses int64
	CacheEntries           int
	PoolHits, PoolMisses   int64
	PoolEntries            int
	// PoolBuilds counts pipeline constructions since startup — the
	// "no new pipeline constructed" observable.
	PoolBuilds int64
	// PeerHits/PeerMisses count second-tier lookups through the
	// FetchPeer hook; PeerServes counts tables this node served to peers
	// via GET /v1/cache/{hash}.
	PeerHits, PeerMisses, PeerServes int64
	// Executed counts jobs that ran a pipeline to done on this node —
	// cache- and peer-answered jobs are excluded. Summed across a fleet
	// it is the idempotency observable: one logical job executes to
	// completion exactly once however often it is requeued.
	Executed int64
	// Shed counts submissions refused by the admission queue bounds.
	Shed int64
	// Batches counts accepted batch submissions.
	Batches int64
	// IdemReplays counts keyed submissions answered from the idempotency
	// store — retried RPCs collapsed onto their first attempt's job.
	IdemReplays int64
}

// Snapshot returns the current Stats, read from the counters /metrics
// renders.
func (s *Server) Snapshot() Stats {
	m := s.metrics
	return Stats{
		CacheHits:    m.cacheHits.Value(),
		CacheMisses:  m.cacheMisses.Value(),
		CacheEntries: s.cache.len(),
		PoolHits:     m.poolHits.Value(),
		PoolMisses:   m.poolMisses.Value(),
		PoolEntries:  s.pool.len(),
		PoolBuilds:   s.pool.builds.Load(),
		PeerHits:     m.peerHits.Value(),
		PeerMisses:   m.peerMisses.Value(),
		PeerServes:   m.peerServes.Value(),
		Executed:     m.executed.Value(),
		Shed:         m.shed.Value(),
		Batches:      m.batches.Value(),
		IdemReplays:  m.idemReplays.Value(),
	}
}

// Metrics is the registry behind GET /metrics. Co-located subsystems
// (the fleet's join-time cache warmer) declare their families on it, so
// they ride the worker's exposition.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }
