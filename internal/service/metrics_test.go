package service

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/goldentest"
)

// TestWritePrometheusGolden renders a fully populated metrics set and
// compares the entire text exposition byte-for-byte. The render is
// deterministically ordered on purpose; this test is the contract. The
// hostile jobsTotal key additionally pins the label-value escaping:
// backslash, quote and newline escaped, nothing else (a %q renderer
// would emit \u-escapes no Prometheus parser accepts).
func TestWritePrometheusGolden(t *testing.T) {
	m := newMetrics(func() int64 { return 5 }, func() int64 { return 2 })
	m.jobsTotal.Add("done", 3)
	m.jobsTotal.Add("failed", 1)
	m.jobsTotal.Add("a\"b\\c\nd", 1)
	m.jobsQueued.Add(2)
	m.jobsRunning.Add(1)
	m.cacheHits.Add(4)
	m.cacheMisses.Add(6)
	m.peerHits.Add(1)
	m.peerMisses.Add(2)
	m.peerServes.Add(3)
	m.executed.Add(7)
	m.shed.Add(1)
	m.batches.Add(2)
	m.idemReplays.Add(1)
	m.poolHits.Add(3)
	m.poolMisses.Add(1)
	m.poolEvictions.Add(2)
	m.stageSeconds.Observe("partition", 0.025) // exactly on a bucket bound
	m.stageSeconds.Observe("partition", 40)    // above the top bound: +Inf only

	var sb strings.Builder
	if err := m.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	want := "# HELP snnmapd_jobs_total Jobs reaching a terminal state, by state.\n" +
		"# TYPE snnmapd_jobs_total counter\n" +
		"snnmapd_jobs_total{state=\"a\\\"b\\\\c\\nd\"} 1\n" +
		"snnmapd_jobs_total{state=\"done\"} 3\n" +
		"snnmapd_jobs_total{state=\"failed\"} 1\n" +
		"# HELP snnmapd_jobs_queued Jobs accepted and waiting for a worker.\n" +
		"# TYPE snnmapd_jobs_queued gauge\n" +
		"snnmapd_jobs_queued 2\n" +
		"# HELP snnmapd_jobs_running Jobs currently executing on a worker.\n" +
		"# TYPE snnmapd_jobs_running gauge\n" +
		"snnmapd_jobs_running 1\n" +
		"# HELP snnmapd_result_cache_hits_total Jobs answered from the content-addressed result cache.\n" +
		"# TYPE snnmapd_result_cache_hits_total counter\n" +
		"snnmapd_result_cache_hits_total 4\n" +
		"# HELP snnmapd_result_cache_misses_total Jobs whose canonical spec was not cached.\n" +
		"# TYPE snnmapd_result_cache_misses_total counter\n" +
		"snnmapd_result_cache_misses_total 6\n" +
		"# HELP snnmapd_result_cache_hit_ratio Fraction of result-cache lookups answered locally (0 before any lookup).\n" +
		"# TYPE snnmapd_result_cache_hit_ratio gauge\n" +
		"snnmapd_result_cache_hit_ratio 0.4\n" +
		"# HELP snnmapd_result_cache_entries Result tables currently cached.\n" +
		"# TYPE snnmapd_result_cache_entries gauge\n" +
		"snnmapd_result_cache_entries 5\n" +
		"# HELP snnmapd_peer_cache_hits_total Local misses answered by a peer's result cache (tiered fetch).\n" +
		"# TYPE snnmapd_peer_cache_hits_total counter\n" +
		"snnmapd_peer_cache_hits_total 1\n" +
		"# HELP snnmapd_peer_cache_misses_total Tiered peer-cache lookups that found nothing.\n" +
		"# TYPE snnmapd_peer_cache_misses_total counter\n" +
		"snnmapd_peer_cache_misses_total 2\n" +
		"# HELP snnmapd_peer_cache_serves_total Cached tables this node served to peers via GET /v1/cache/{hash}.\n" +
		"# TYPE snnmapd_peer_cache_serves_total counter\n" +
		"snnmapd_peer_cache_serves_total 3\n" +
		"# HELP snnmapd_jobs_executed_total Jobs that ran a pipeline to done on this node (cache- and peer-answered jobs excluded).\n" +
		"# TYPE snnmapd_jobs_executed_total counter\n" +
		"snnmapd_jobs_executed_total 7\n" +
		"# HELP snnmapd_loadshed_total Submissions refused by the admission queue bounds (429).\n" +
		"# TYPE snnmapd_loadshed_total counter\n" +
		"snnmapd_loadshed_total 1\n" +
		"# HELP snnmapd_batches_total Batch submissions accepted.\n" +
		"# TYPE snnmapd_batches_total counter\n" +
		"snnmapd_batches_total 2\n" +
		"# HELP snnmapd_idempotent_replays_total Keyed resubmissions answered with the already-accepted job.\n" +
		"# TYPE snnmapd_idempotent_replays_total counter\n" +
		"snnmapd_idempotent_replays_total 1\n" +
		"# HELP snnmapd_session_pool_hits_total Jobs served by an already-warm pipeline session.\n" +
		"# TYPE snnmapd_session_pool_hits_total counter\n" +
		"snnmapd_session_pool_hits_total 3\n" +
		"# HELP snnmapd_session_pool_misses_total Jobs that had to construct a pipeline session.\n" +
		"# TYPE snnmapd_session_pool_misses_total counter\n" +
		"snnmapd_session_pool_misses_total 1\n" +
		"# HELP snnmapd_session_pool_evictions_total Warm sessions evicted by the LRU bound.\n" +
		"# TYPE snnmapd_session_pool_evictions_total counter\n" +
		"snnmapd_session_pool_evictions_total 2\n" +
		"# HELP snnmapd_session_pool_hit_ratio Fraction of session lookups served by an already-warm pipeline (0 before any lookup).\n" +
		"# TYPE snnmapd_session_pool_hit_ratio gauge\n" +
		"snnmapd_session_pool_hit_ratio 0.75\n" +
		"# HELP snnmapd_session_pool_entries Warm sessions currently pooled.\n" +
		"# TYPE snnmapd_session_pool_entries gauge\n" +
		"snnmapd_session_pool_entries 2\n" +
		"# HELP snnmapd_stage_seconds Pipeline stage wall clock.\n" +
		"# TYPE snnmapd_stage_seconds histogram\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"0.001\"} 0\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"0.005\"} 0\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"0.025\"} 1\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"0.1\"} 1\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"0.25\"} 1\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"1\"} 1\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"2.5\"} 1\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"10\"} 1\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"30\"} 1\n" +
		"snnmapd_stage_seconds_bucket{stage=\"partition\",le=\"+Inf\"} 2\n" +
		"snnmapd_stage_seconds_sum{stage=\"partition\"} 40.025\n" +
		"snnmapd_stage_seconds_count{stage=\"partition\"} 2\n"

	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("render diverges at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
		t.Fatalf("render mismatch:\n%s", got)
	}
}

// TestWritePrometheusAllStagesGolden observes every pipeline stage, in
// reverse order, and pins the full exposition against a golden file:
// stage histograms render in pipeline order (partition, place,
// simulate, analyze), not in label-string order, and counters at or
// above one million render as plain integers, never as 1e+06.
func TestWritePrometheusAllStagesGolden(t *testing.T) {
	m := newMetrics(func() int64 { return 0 }, func() int64 { return 0 })
	m.jobsTotal.Add("done", 1_000_000)
	m.executed.Add(1_000_000)
	m.cacheHits.Inc()
	m.stageSeconds.Observe("analyze", 0.04)
	m.stageSeconds.Observe("simulate", 12)
	m.stageSeconds.Observe("place", 0.0005)
	m.stageSeconds.Observe("partition", 0.003)

	var b bytes.Buffer
	if err := m.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "metrics_all_stages.prom.golden", b.Bytes())
}
