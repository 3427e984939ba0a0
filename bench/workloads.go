package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	snnmap "repro"
	"repro/internal/service"
)

// workload is one traffic mix the benchmark can run. BENCHMARK.json and
// bench/README.md record why each exists.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"fleet-mix", runFleetMix},
	{"replay-heavy", runReplayHeavy},
	{"partition-heavy", runPartitionHeavy},
	{"paper-quick", runPaper},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// setupRuns is how many times a run sets up; setup_s is the median. One
// set-up lasts 0.05–0.8 s, and single set-ups of one run vary by ±15%.
const setupRuns = 9

// runConfig is one invocation's settings.
type runConfig struct {
	seed int64
	// phase is the length of the measured phase.
	phase time.Duration
	trace bool
	// setups is how many times set-up runs (setupRuns from the command
	// line, fewer in tests); setup_s is the median.
	setups int
	// rerunLimit caps the jobs re-run in-process after the phase.
	rerunLimit int
	// experiments overrides the paper-quick experiment list (tests).
	experiments []string
}

// outcome is what a workload measured.
type outcome struct {
	setups []time.Duration
	// wall is the measured phase: from its start to the last result.
	wall time.Duration
	// jobs holds the client-observed time of every successful job.
	jobs              []time.Duration
	attempted, failed int
	// heapLivePeakMB and allocMB are the phase's live-heap peak and its
	// heap allocations.
	heapLivePeakMB, allocMB float64
	digest                  string
	problems                []string
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	spans  *tracer
}

// primeIterations offsets the iterations of set-up jobs past every value
// a plan uses, so set-up never pre-fills a measured job's cache entry.
const primeIterations = 10_000_000

// setupFleet starts a fleet and primes it: every session base is built
// on every worker (one greedy job per worker and base, each with its own
// content address so no worker is answered from its peer's cache), then
// the plan's warm-up jobs run through the router so their results sit in
// their owners' caches.
func setupFleet(ctx context.Context, tr *tracer, bases, warmup []snnmap.JobSpec) (*inprocFleet, error) {
	f, err := startFleet(tr)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(f.urls)+1)
	var wg sync.WaitGroup
	for w, url := range f.urls {
		wg.Add(1)
		go func(w int, url string) {
			defer wg.Done()
			c := newConn(url, nil)
			defer c.close()
			for i, base := range bases {
				s := base
				s.Techniques, s.TechSeeds, s.SwarmSize = []string{"greedy"}, nil, 0
				s.Iterations = primeIterations + w*len(bases) + i
				if errs[w] = awaitJob(ctx, c, s); errs[w] != nil {
					return
				}
			}
		}(w, url)
	}
	wg.Wait()
	c := newConn(f.routerSrv.URL, nil)
	defer c.close()
	for _, s := range warmup {
		if errs[len(f.urls)] = awaitJob(ctx, c, s); errs[len(f.urls)] != nil {
			break
		}
	}
	for _, err := range errs {
		if err != nil {
			f.close()
			return nil, fmt.Errorf("priming the fleet: %w", err)
		}
	}
	return f, nil
}

func awaitJob(ctx context.Context, c *conn, s snnmap.JobSpec) error {
	st, err := c.submit(ctx, s, 0)
	if err != nil {
		return err
	}
	if st.State == service.JobDone {
		return nil
	}
	state, err := c.await(ctx, st.ID, 0)
	if err == nil && state != service.JobDone {
		err = fmt.Errorf("job %s ended %s", st.ID, state)
	}
	return err
}

// setupRepeated runs set-up cfg.setups times, keeping the last fleet, and
// records each set-up's time.
func setupRepeated(ctx context.Context, cfg runConfig, tr *tracer, bases, warmup []snnmap.JobSpec, out *outcome) (*inprocFleet, error) {
	var f *inprocFleet
	for k := 0; k < cfg.setups; k++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = setupFleet(ctx, tr, bases, warmup); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	runtime.GC()
	return f, nil
}

func newTracer(on bool) *tracer {
	if on {
		return &tracer{}
	}
	return nil
}

func runFleetMix(ctx context.Context, cfg runConfig) (*outcome, error) {
	plan, err := planFleetMix(cfg.seed, cfg.phase)
	if err != nil {
		return nil, err
	}
	var bases []snnmap.JobSpec
	for _, s := range plan.Warmup {
		bases = append(bases, snnmap.JobSpec{App: s.App, Arch: s.Arch, Seed: s.Seed, AER: s.AER})
	}
	tr := newTracer(cfg.trace)
	out := &outcome{spans: tr}
	f, err := setupRepeated(ctx, cfg, tr, bases, plan.Warmup, out)
	if err != nil {
		return nil, err
	}
	before := f.snapshot()
	mem := startMemMeter()
	start := time.Now()
	records := runOpen(ctx, f.routerSrv.URL, plan.Arrivals, tr)
	return finishFleet(ctx, cfg, f, records, start, mem, before, false, out)
}

func runReplayHeavy(ctx context.Context, cfg runConfig) (*outcome, error) {
	return runClosedWorkload(ctx, cfg, replayShapes)
}

func runPartitionHeavy(ctx context.Context, cfg runConfig) (*outcome, error) {
	return runClosedWorkload(ctx, cfg, partitionShapes)
}

func runClosedWorkload(ctx context.Context, cfg runConfig, shapes []snnmap.JobSpec) (*outcome, error) {
	plan, err := planClosed(shapes, cfg.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(cfg.trace)
	out := &outcome{spans: tr}
	f, err := setupRepeated(ctx, cfg, tr, plan.Shapes, nil, out)
	if err != nil {
		return nil, err
	}
	before := f.snapshot()
	mem := startMemMeter()
	start := time.Now()
	records := runClosed(ctx, f.routerSrv.URL, plan, cfg.phase, tr)
	return finishFleet(ctx, cfg, f, records, start, mem, before, true, out)
}

// finishFleet closes the measured phase of a fleet workload: it stops the
// fleet, checks every output, re-runs a sample in-process, and, when
// traced, derives the per-layer metrics.
func finishFleet(ctx context.Context, cfg runConfig, f *inprocFleet, records []*jobRecord, start time.Time, mem *memMeter, before fleetSnapshot, closed bool, out *outcome) (*outcome, error) {
	last := start
	for _, r := range records {
		out.attempted++
		if !r.ok() {
			out.failed++
			continue
		}
		out.jobs = append(out.jobs, r.latency())
		if r.Done.After(last) {
			last = r.Done
		}
	}
	out.wall = last.Sub(start)
	out.heapLivePeakMB, out.allocMB = mem.end()
	after := f.snapshot()
	if cfg.trace && closed {
		statuses, err := f.workerStatuses(ctx)
		if err != nil {
			f.close()
			return nil, err
		}
		for _, r := range records {
			if st, ok := statuses[r.Hash]; ok && r.ok() {
				r.Status = st
				addServiceSpans(out.spans, r)
			}
		}
	}
	f.close()

	out.problems = append(out.problems, checkRecords(records, closed)...)
	out.digest = recordsDigest(records, closed)
	stages, problems := checkRerun(ctx, sampleRecords(records, cfg.rerunLimit))
	out.problems = append(out.problems, problems...)
	if cfg.trace {
		out.layers = fleetLayers(records, out.spans.snapshot(), f.urls, before, after, stages)
	}
	return out, nil
}
