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
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet/resilience"
	"repro/internal/obs"
	"repro/internal/service"
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

// call is one node-to-node request. Every peer call in the fleet —
// router to worker, router to router, worker to worker — is a call, so
// each is built, sent, bounded and closed by do and nowhere else.
type call struct {
	method, url string
	// body, when non-nil, is sent as application/json.
	body []byte
	// tenant, idemKey and accept, when set, are sent as the X-Tenant,
	// X-Idempotency-Key and Accept headers.
	tenant, idemKey, accept string
	// deadline stamps ctx's deadline as X-Deadline; trace stamps ctx's
	// span as traceparent. Both stay off on background calls: with clock
	// skew between nodes, a deadline the receiver reads as past is a 504.
	deadline, trace bool
	// timeout bounds the call locally; unlike a ctx deadline it is never
	// sent to the peer.
	timeout time.Duration
	// fault names the fault point fired before the request ("" none).
	fault string
	// limit bounds the response body: at most limit+1 bytes are read,
	// and a body over limit is rejected whole.
	limit int64
	// stream, when set, is offered the response first; returning true
	// means it consumed the body itself (result bytes, SSE frames), so
	// nothing is buffered.
	stream func(*http.Response) bool
}

// reply is a call's answer: status, headers and the bounded body.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// do sends the call with client. A failure before any response (fault
// point, transport, timeout) leaves reply.code 0; a body that fails to
// read or runs over the limit keeps the status and headers, with a nil
// body and the error.
func (c call) do(ctx context.Context, client *http.Client) (reply, error) {
	if c.fault != "" {
		if err := resilience.P(c.fault).FireCtx(ctx); err != nil {
			return reply{}, err
		}
	}
	rctx := ctx
	if c.timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if c.body != nil {
		rd = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(rctx, c.method, c.url, rd)
	if err != nil {
		return reply{}, err
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for _, h := range [...][2]string{{"X-Tenant", c.tenant}, {service.IdempotencyKeyHeader, c.idemKey}, {"Accept", c.accept}} {
		if h[1] != "" {
			req.Header.Set(h[0], h[1])
		}
	}
	if c.trace {
		obs.Inject(req.Header, obs.FromContext(ctx))
	}
	if c.deadline {
		resilience.SetDeadlineHeader(req, ctx)
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	rep := reply{code: resp.StatusCode, header: resp.Header}
	if c.stream != nil && c.stream(resp) {
		return rep, nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.limit+1))
	if err == nil && int64(len(body)) > c.limit {
		err = fmt.Errorf("%s %s: response body over its %d-byte limit", c.method, c.url, c.limit)
	}
	if err == nil {
		rep.body = body
	}
	return rep, err
}

// decode unmarshals a 200 answer's JSON body into v and reports whether
// it did; any other status, or a body do rejected, is false.
func (r reply) decode(v any) bool {
	return r.code == http.StatusOK && json.Unmarshal(r.body, v) == nil
}
