// Package fleet turns N snnmapd worker processes into one logical
// mapping service. It is the distribution layer over internal/service,
// with four pillars:
//
//   - Routing: a stateless router (snnmapd -fleet-route) places every
//     job on a consistent-hash ring keyed by the JobSpec content address
//     (Ring, virtual nodes for balance), proxying the existing job and
//     SSE wire surface unchanged. Equal canonical specs always hash to
//     the same worker, so the worker's warm-session pool and result
//     cache see every repeat — cache affinity falls out of the shard key
//     for free.
//
//   - Tiered results: each worker serves its local result-cache tier to
//     peers at GET /v1/cache/{hash}; NewPeerFetcher gives workers the
//     matching second-tier lookup (ask the ring owner before
//     recomputing), so a spec submitted to the "wrong" entry node is
//     still answered from the fleet's cache.
//
//   - Batching: POST /v1/batches is scattered by ring owner and, on
//     each worker, grouped by session key so a warm session is built at
//     most once per batch (internal/service.handleBatch); tech_seeds
//     sweeps run through Pipeline.RunSeeds.
//
//   - Robustness: workers shed load from bounded per-tenant fair queues
//     (429 + Retry-After, which the router spills to ring successors);
//     a health monitor probes workers and gossips membership views
//     between routers; and jobs on a dead node are requeued to the next
//     ring successor — re-execution is idempotent because results are
//     content-addressed (a replayed job reproduces byte-identical
//     tables, and a job only ever executes to completion once, see the
//     chaos test).
//
// The router holds no mapping state of its own beyond the in-memory
// route table (router job ID → worker, spec, content address); workers
// are the system of record for results.
package fleet

import (
	"net/http"
	"strings"
	"time"
)

// normalizeBase canonicalizes a peer address into a base URL: a bare
// host:port gains the http scheme, trailing slashes are dropped.
func normalizeBase(addr string) string {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// normalizeBases canonicalizes a peer list, dropping empties.
func normalizeBases(addrs []string) []string {
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if b := normalizeBase(a); b != "" {
			out = append(out, b)
		}
	}
	return out
}

// apiClient is the default client for request/response proxying: bounded
// end to end so a wedged worker cannot pin router handlers.
func apiClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second}
}

// streamClient is the default client for SSE relays: no overall timeout
// (streams live as long as the job), connection setup still bounded by
// the transport defaults.
func streamClient() *http.Client {
	return &http.Client{}
}
