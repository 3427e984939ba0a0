package main

import (
	"strings"
	"time"

	snnmap "repro"
	"repro/internal/fleet"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload. A "job" is what the workload's user waits for: one mapping
// job on the fleet workloads, one pass over the experiment list on
// paper-quick.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"alloc_mb_per_job", "MB"},
}

// paperExperimentNames are the experiments paper-quick passes over:
// every registered one but fig5, whose ~22 s alone outlasts a run.
func paperExperimentNames() []string {
	var out []string
	for _, e := range snnmap.Experiments() {
		if e.Name() != "fig5" {
			out = append(out, e.Name())
		}
	}
	return out
}

// perLayer are the metrics of a traced run, reported on every workload;
// a layer a workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"client.send_lag_p95_ms", "ms"},
		{"client.detect_lag_p50_ms", "ms"},
		{"client.uncovered_share", "ratio"},
		{"fleet.submit_self_p50_ms", "ms"},
		{"fleet.status_self_p50_ms", "ms"},
		{"fleet.result_self_p50_ms", "ms"},
		{"fleet.rpcs_per_job", "count"},
		{"fleet.spill_ratio", "ratio"},
		{"fleet.owner_skew", "ratio"},
		{"service.submit_p50_ms", "ms"},
		{"service.result_p50_ms", "ms"},
		{"service.queue_wait_p50_ms", "ms"},
		{"service.queue_wait_p95_ms", "ms"},
		{"service.exec_p50_ms", "ms"},
		{"service.cached_p50_ms", "ms"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.peer_hit_ratio", "ratio"},
		{"service.pool_hit_ratio", "ratio"},
		{"service.pool_builds", "count"},
		{"service.shed_total", "count"},
		{"snnmap.session_build_p50_ms", "ms"},
		{"partition.p50_ms", "ms"},
		{"partition.place_p50_ms", "ms"},
		{"partition.busy_share", "ratio"},
		{"noc.simulate_p50_ms", "ms"},
		{"noc.busy_share", "ratio"},
		{"noc.ns_per_packet", "ns"},
		{"noc.allocs_per_job", "count"},
		{"noc.alloc_mb_per_job", "MB"},
		{"noc.delivered_total", "count"},
		{"noc.cycles_total", "count"},
		{"metrics.analyze_p50_ms", "ms"},
		{"table.encode_p50_ms", "ms"},
	}
	for _, name := range paperExperimentNames() {
		defs = append(defs, metricDef{"engine." + name + "_s", "s"})
	}
	return append(defs,
		metricDef{"engine.pipelines_built", "count"},
		metricDef{"engine.pipeline_new_s", "s"},
		metricDef{"engine.other_share", "ratio"},
		metricDef{"process.heap_live_peak_mb", "MB"},
	)
}

// endToEndValues derives the end-to-end metrics from an outcome.
func endToEndValues(o *outcome) map[string]float64 {
	var setups []float64
	for _, d := range o.setups {
		setups = append(setups, d.Seconds())
	}
	jobs := msOf(o.jobs)
	return map[string]float64{
		"setup_s":          median(setups),
		"jobs_per_s":       ratio(float64(len(o.jobs)), o.wall.Seconds()),
		"job_p50_ms":       percentile(jobs, 50),
		"job_p95_ms":       percentile(jobs, 95),
		"alloc_mb_per_job": ratio(o.allocMB, float64(len(o.jobs))),
	}
}

// stageLayers derives the snnmap, partition, noc, metrics and table
// metrics from in-process re-runs.
func stageLayers(stages []stageSample, m map[string]float64) {
	var build, part, place, sim, analyze, encode []float64
	var total, partSum, simSum time.Duration
	var delivered, cycles int64
	var allocs, allocBytes uint64
	for _, s := range stages {
		build = append(build, ms(s.build))
		part = append(part, ms(s.partition))
		place = append(place, ms(s.place))
		sim = append(sim, ms(s.simulate))
		analyze = append(analyze, ms(s.analyze))
		encode = append(encode, ms(s.encode))
		total += s.total
		partSum += s.partition
		simSum += s.simulate
		delivered += s.delivered
		cycles += s.cycles
		allocs += s.allocs
		allocBytes += s.allocBytes
	}
	n := float64(len(stages))
	m["snnmap.session_build_p50_ms"] = median(build)
	m["partition.p50_ms"] = median(part)
	m["partition.place_p50_ms"] = median(place)
	m["partition.busy_share"] = ratio(float64(partSum), float64(total))
	m["noc.simulate_p50_ms"] = median(sim)
	m["noc.busy_share"] = ratio(float64(simSum), float64(total))
	m["noc.ns_per_packet"] = ratio(float64(simSum), float64(delivered))
	m["noc.allocs_per_job"] = ratio(float64(allocs), n)
	m["noc.alloc_mb_per_job"] = ratio(float64(allocBytes)/1e6, n)
	m["noc.delivered_total"] = float64(delivered)
	m["noc.cycles_total"] = float64(cycles)
	m["metrics.analyze_p50_ms"] = median(analyze)
	m["table.encode_p50_ms"] = median(encode)
}

// fleetLayers derives the client, fleet and service metrics of a traced
// fleet run from its spans, job statuses and worker counters, plus the
// stage metrics of its in-process re-runs.
func fleetLayers(records []*jobRecord, spans []span, urls []string, before, after fleetSnapshot, stages []stageSample) map[string]float64 {
	m := map[string]float64{}
	ix := indexTrace(spans)
	ring := fleet.NewRing(0, urls...)

	var sendLag, detectLag, queue, exec, cached []float64
	selfBy := map[string][]float64{} // "fleet.submit" → fleet self time per client submit
	var rpcs, jobs, submits, spills int
	var uncovered, jobTime time.Duration
	for _, r := range records {
		if !r.ok() {
			continue
		}
		if !r.Due.IsZero() {
			sendLag = append(sendLag, ms(r.Sent.Sub(r.Due)))
		}
		st := r.Status
		if st.Cached {
			cached = append(cached, ms(r.latency()))
		}
		if st.Started != nil && st.Finished != nil {
			queue = append(queue, ms(st.Started.Sub(st.Created)))
			exec = append(exec, ms(st.Finished.Sub(*st.Started)))
			detectLag = append(detectLag, ms(r.Detected.Sub(*st.Finished)))
		}
		root := ix.roots[r.Index]
		if root == nil {
			continue
		}
		jobs++
		self := ix.selfTimes(root)
		uncovered += self[root.ID]
		jobTime += root.dur()
		tree, _ := ix.tree(root)
		for _, s := range tree {
			switch s.Name {
			case "fleet.rpc":
				rpcs++
			case "client.submit", "client.status", "client.result":
				op := strings.TrimPrefix(s.Name, "client.")
				sub, _ := ix.tree(s)
				var fleetSelf time.Duration
				for _, d := range sub {
					if strings.HasPrefix(d.Name, "fleet.") {
						fleetSelf += self[d.ID]
					}
				}
				selfBy["fleet."+op] = append(selfBy["fleet."+op], ms(fleetSelf))
			case "service.submit", "service.result":
				selfBy[s.Name] = append(selfBy[s.Name], ms(s.dur()))
			case "fleet.submit":
				// The accepted submit RPC names the worker the job landed on.
				for _, c := range ix.children[s.ID] {
					if c.Name == "fleet.rpc" && (c.Code == 200 || c.Code == 202) {
						submits++
						if owner, _ := ring.Owner(r.Hash); c.Node != owner {
							spills++
						}
					}
				}
			}
		}
	}
	m["client.send_lag_p95_ms"] = percentile(sendLag, 95)
	m["client.detect_lag_p50_ms"] = median(detectLag)
	m["client.uncovered_share"] = ratio(float64(uncovered), float64(jobTime))
	m["fleet.submit_self_p50_ms"] = median(selfBy["fleet.submit"])
	m["fleet.status_self_p50_ms"] = median(selfBy["fleet.status"])
	m["fleet.result_self_p50_ms"] = median(selfBy["fleet.result"])
	m["fleet.rpcs_per_job"] = ratio(float64(rpcs), float64(jobs))
	m["fleet.spill_ratio"] = ratio(float64(spills), float64(submits))
	var maxExec, sumExec float64
	for i, e := range after.executed {
		d := float64(e - before.executed[i])
		maxExec = max(maxExec, d)
		sumExec += d
	}
	m["fleet.owner_skew"] = ratio(maxExec, sumExec/float64(len(after.executed)))
	m["service.submit_p50_ms"] = median(selfBy["service.submit"])
	m["service.result_p50_ms"] = median(selfBy["service.result"])
	m["service.queue_wait_p50_ms"] = median(queue)
	m["service.queue_wait_p95_ms"] = percentile(queue, 95)
	m["service.exec_p50_ms"] = median(exec)
	m["service.cached_p50_ms"] = median(cached)
	a, b := after.sum, before.sum
	hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	peerHits, peerMisses := float64(a.PeerHits-b.PeerHits), float64(a.PeerMisses-b.PeerMisses)
	m["service.peer_hit_ratio"] = ratio(peerHits, peerHits+peerMisses)
	poolHits, poolMisses := float64(a.PoolHits-b.PoolHits), float64(a.PoolMisses-b.PoolMisses)
	m["service.pool_hit_ratio"] = ratio(poolHits, poolHits+poolMisses)
	m["service.pool_builds"] = float64(a.PoolBuilds - b.PoolBuilds)
	m["service.shed_total"] = float64(a.Shed - b.Shed)
	stageLayers(stages, m)
	return m
}

// layerSelfTimes returns each layer's mean self time per job, in ms. The
// job's own client.job span owns the instants no request or worker span
// covers (send lag, gaps between requests); they are reported as
// "uncovered", not as client time, so the layers' sum falls short of the
// mean client-observed job time by exactly what the spans miss.
func layerSelfTimes(spans []span) map[string]float64 {
	ix := indexTrace(spans)
	out := map[string]float64{}
	for _, root := range ix.roots {
		for id, d := range ix.selfTimes(root) {
			layer, _, _ := strings.Cut(ix.byID[id].Name, ".")
			if id == root.ID {
				layer = "uncovered"
			}
			out[layer] += ms(d) / float64(len(ix.roots))
		}
	}
	return out
}
