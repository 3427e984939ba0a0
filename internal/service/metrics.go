package service

import (
	snnmap "repro"
	"repro/internal/obs"
)

// stageBuckets are the upper bounds (seconds) of the per-stage latency
// histograms. Stage wall clocks span microseconds (placement on small
// grids) to tens of seconds (saturated replays), so the buckets run
// log-ish across that range.
var stageBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30}

// stageNames are the stage histogram's label values, in pipeline order.
var stageNames = []string{
	snnmap.StagePartition.String(), snnmap.StagePlace.String(),
	snnmap.StageSimulate.String(), snnmap.StageAnalyze.String(),
}

// metrics are the daemon's operational metrics, each declared once on
// the server's registry, which renders GET /metrics. Stats snapshots
// read the same counters.
type metrics struct {
	reg *obs.Registry

	jobsTotal   *obs.CounterVec // by terminal state
	jobsQueued  *obs.Gauge
	jobsRunning *obs.Gauge

	cacheHits, cacheMisses *obs.Counter

	// Tiered-cache and fleet-facing counters: second-tier lookups made
	// through the FetchPeer hook, tables served to peers, jobs actually
	// executed to done on this node, submissions shed by the admission
	// bounds, and batch submissions accepted.
	peerHits, peerMisses, peerServes *obs.Counter
	executed, shed, batches          *obs.Counter
	idemReplays                      *obs.Counter

	poolHits, poolMisses, poolEvictions *obs.Counter

	stageSeconds *obs.HistogramVec
}

// newMetrics declares the daemon's families in exposition order. The
// occupancy gauges read cacheEntries and poolEntries at render time.
func newMetrics(cacheEntries, poolEntries func() int64) *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}
	m.jobsTotal = r.CounterVec("snnmapd_jobs_total", "Jobs reaching a terminal state, by state.", "state")
	m.jobsQueued = r.Gauge("snnmapd_jobs_queued", "Jobs accepted and waiting for a worker.")
	m.jobsRunning = r.Gauge("snnmapd_jobs_running", "Jobs currently executing on a worker.")

	m.cacheHits = r.Counter("snnmapd_result_cache_hits_total", "Jobs answered from the content-addressed result cache.")
	m.cacheMisses = r.Counter("snnmapd_result_cache_misses_total", "Jobs whose canonical spec was not cached.")
	r.RatioFunc("snnmapd_result_cache_hit_ratio", "Fraction of result-cache lookups answered locally (0 before any lookup).",
		func() float64 { return ratio(m.cacheHits, m.cacheMisses) })
	r.GaugeFunc("snnmapd_result_cache_entries", "Result tables currently cached.", cacheEntries)

	m.peerHits = r.Counter("snnmapd_peer_cache_hits_total", "Local misses answered by a peer's result cache (tiered fetch).")
	m.peerMisses = r.Counter("snnmapd_peer_cache_misses_total", "Tiered peer-cache lookups that found nothing.")
	m.peerServes = r.Counter("snnmapd_peer_cache_serves_total", "Cached tables this node served to peers via GET /v1/cache/{hash}.")

	m.executed = r.Counter("snnmapd_jobs_executed_total", "Jobs that ran a pipeline to done on this node (cache- and peer-answered jobs excluded).")
	m.shed = r.Counter("snnmapd_loadshed_total", "Submissions refused by the admission queue bounds (429).")
	m.batches = r.Counter("snnmapd_batches_total", "Batch submissions accepted.")
	m.idemReplays = r.Counter("snnmapd_idempotent_replays_total", "Keyed resubmissions answered with the already-accepted job.")

	m.poolHits = r.Counter("snnmapd_session_pool_hits_total", "Jobs served by an already-warm pipeline session.")
	m.poolMisses = r.Counter("snnmapd_session_pool_misses_total", "Jobs that had to construct a pipeline session.")
	m.poolEvictions = r.Counter("snnmapd_session_pool_evictions_total", "Warm sessions evicted by the LRU bound.")
	r.RatioFunc("snnmapd_session_pool_hit_ratio", "Fraction of session lookups served by an already-warm pipeline (0 before any lookup).",
		func() float64 { return ratio(m.poolHits, m.poolMisses) })
	r.GaugeFunc("snnmapd_session_pool_entries", "Warm sessions currently pooled.", poolEntries)

	m.stageSeconds = r.HistogramVec("snnmapd_stage_seconds", "Pipeline stage wall clock.", "stage", stageNames, stageBuckets)
	return m
}

// jobFinished records a job reaching the terminal state; running tracks
// whether it occupied a worker (cached and pre-start-canceled jobs never
// do).
func (m *metrics) jobFinished(state JobState, running bool) {
	if running {
		m.jobsRunning.Add(-1)
	}
	m.jobsTotal.Inc(string(state))
}

// countLookup counts one cache or pool lookup as a hit or a miss.
func countLookup(hit bool, hits, misses *obs.Counter) {
	if hit {
		hits.Inc()
	} else {
		misses.Inc()
	}
}

// ratio is hits/(hits+misses), 0 before any lookup.
func ratio(hits, misses *obs.Counter) float64 {
	h, n := hits.Value(), misses.Value()
	if h+n == 0 {
		return 0
	}
	return float64(h) / float64(h+n)
}
