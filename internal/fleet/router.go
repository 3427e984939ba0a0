package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	snnmap "repro"
	"repro/internal/fleet/resilience"
	"repro/internal/obs"
	"repro/internal/service"
)

// maxSpecBytes / maxBatchBytes bound the worker responses the router
// reads: one job's worth, and a batch's (or a trace's).
const (
	maxSpecBytes  = 1 << 20
	maxBatchBytes = 8 << 20
)

// RouterConfig configures a fleet router.
type RouterConfig struct {
	// Peers are the worker base URLs (host:port or http://host:port).
	Peers []string
	// VNodes is the consistent-hash ring's virtual-point count per node
	// (<=0 picks the default 64). Must match the workers' peer-fetch
	// rings so router and workers agree on content-address ownership.
	VNodes int
	// ProbeInterval is the health-probe cadence (default 2s).
	ProbeInterval time.Duration
	// FailThreshold is the consecutive-failure count that declares a
	// node dead (default 2). Proxy failures count toward it too.
	FailThreshold int
	// GossipPeers are other routers whose /v1/fleet membership views are
	// merged into this router's (optional). With Self set they are also
	// the replication set: their route tables are pulled and adopted so
	// this router can serve jobs its siblings accepted.
	GossipPeers []string
	// Self is this router's own advertised base URL (optional). Setting
	// it stamps job IDs with an origin token (`fleet-<token>-<seq>`),
	// which is what lets a sibling router recognize — and 307-redirect —
	// an ID it has no replica for yet. Unset, IDs stay tokenless and
	// siblings answer 404 for them.
	Self string
	// Retry overrides the shared router→worker RPC retry policy (tests).
	// The default is 2 attempts with a 50ms base backoff — one fast
	// retry absorbs transient connection failures, anything longer is
	// the requeue machinery's job.
	Retry *resilience.Policy
	// TracingDisabled turns off the router's span recorder. The zero
	// value traces: every proxied submission gets a router-side span, and
	// GET /v1/jobs/{id}/trace merges it with the worker's span tree.
	TracingDisabled bool
	// TraceCap bounds the span recorder's ring (<=0 picks the obs
	// package default).
	TraceCap int
	// Log is the router's structured logger; nil means silent (the
	// fleet binary passes slog.Default(), tests and benchmarks stay
	// quiet).
	Log *slog.Logger
	// Client overrides the request/response proxy client (tests).
	Client *http.Client
	// StreamClient overrides the SSE relay client (tests). It must not
	// carry an overall timeout — streams live as long as the job.
	StreamClient *http.Client
	// Now overrides the clock (tests).
	Now func() time.Time
}

// route is the router's record of one accepted job: which worker holds
// it, under what remote ID, and everything needed to replay the
// submission elsewhere if that worker dies. The per-route mutex
// serializes requeue attempts — exactly one resubmission happens per
// node death however many pollers observe the failure, which is what
// keeps re-execution single-flight (and, with content addressing,
// idempotent).
type route struct {
	id       string
	hash     string
	tenant   string
	specJSON []byte // normalized submission body, replayed on requeue
	origin   string // minting router's ID token ("" in tokenless mode)

	mu       sync.Mutex
	node     string
	remoteID string
	terminal bool
	requeues int
	last     service.JobStatus // last worker-observed status (raw IDs)
	// trace is the router-side span that parented the worker job (the
	// proxy or scatter span). Requeues open new spans under it, so a
	// job keeps one trace ID across however many workers execute it; it
	// rides the replication record so siblings continue the same trace.
	trace obs.SpanContext
}

// traceContext returns the route's trace identity (zero when the
// minting router had tracing off).
func (ro *route) traceContext() obs.SpanContext {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.trace
}

// snapshot returns the current placement.
func (ro *route) snapshot() (node, remoteID string, terminal bool) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.node, ro.remoteID, ro.terminal
}

// observe records a worker-reported status.
func (ro *route) observe(st service.JobStatus) {
	ro.mu.Lock()
	ro.last = st
	if st.State.Terminal() {
		ro.terminal = true
	}
	ro.mu.Unlock()
}

// rewrite projects a worker status into the router's namespace: the
// router-scoped job ID and its result path replace the worker's, the
// rest of the wire shape passes through unchanged.
func (ro *route) rewrite(st service.JobStatus) service.JobStatus {
	st.ID = ro.id
	if st.Result != "" {
		st.Result = "/v1/jobs/" + ro.id + "/result"
	}
	return st
}

// lastStatus returns the last observed status, rewritten.
func (ro *route) lastStatus() service.JobStatus {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.rewrite(ro.last)
}

// Router is the fleet's front door: it speaks the snnmapd wire surface
// (/v1/jobs, /v1/batches, SSE, results) and places every job on the
// consistent-hash ring keyed by the spec's content address — so repeats
// of a spec always land where its warm session and cached result live.
// Overloaded owners spill to ring successors; dead nodes are detected by
// the health monitor, dropped from the ring, and their in-flight jobs
// requeued onto the next successor.
type Router struct {
	cfg     RouterConfig
	client  *http.Client
	stream  *http.Client
	now     func() time.Time
	mon     *monitor
	metrics *routerMetrics
	retry   resilience.Policy
	tracer  *obs.Recorder // nil when tracing is disabled
	log     *slog.Logger

	// HA identity: this router's ID token and the token→URL map of its
	// gossip siblings (static after construction).
	token       string
	gossipPeers []string
	peerTokens  map[string]string
	// epoch, a per-process nonce, prefixes the router's idempotency
	// units: its sequences restart, a worker's key memory does not.
	epoch string

	mu       sync.Mutex
	ring     *Ring
	seq      int
	batchSeq int
	routes   map[string]*route
	order    []string

	stopRep     chan struct{}
	stopRepOnce sync.Once
	repDone     chan struct{}
}

// NewRouter builds a router over the given worker peers. Call Start to
// begin health probing and Close to stop it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	peers := normalizeBases(cfg.Peers)
	if len(peers) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one peer")
	}
	rt := &Router{
		cfg:         cfg,
		client:      cfg.Client,
		stream:      cfg.StreamClient,
		now:         cfg.Now,
		ring:        NewRing(cfg.VNodes, peers...),
		routes:      map[string]*route{},
		gossipPeers: normalizeBases(cfg.GossipPeers),
		peerTokens:  map[string]string{},
		epoch:       fmt.Sprintf("%016x", rand.Uint64()),
		stopRep:     make(chan struct{}),
		repDone:     make(chan struct{}),
	}
	if !cfg.TracingDisabled {
		rt.tracer = obs.NewRecorder(cfg.TraceCap)
	}
	rt.log = cfg.Log
	if rt.log == nil {
		rt.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	if self := normalizeBase(cfg.Self); self != "" {
		rt.token = originToken(self)
	}
	for _, p := range rt.gossipPeers {
		rt.peerTokens[originToken(p)] = p
	}
	if cfg.Retry != nil {
		rt.retry = *cfg.Retry
	} else {
		rt.retry = resilience.Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond, MaxDelay: 300 * time.Millisecond}
	}
	if rt.client == nil {
		// Bounded end to end, so a wedged worker cannot pin router handlers.
		rt.client = &http.Client{Timeout: 30 * time.Second}
	}
	if rt.stream == nil {
		// No overall timeout: an SSE relay lives as long as its job.
		rt.stream = &http.Client{}
	}
	if rt.now == nil {
		rt.now = time.Now
	}
	rt.mon = newMonitor(peers, cfg.ProbeInterval, cfg.FailThreshold, rt.client, rt.now)
	rt.mon.gossip = rt.gossipPeers
	rt.mon.onDeath = rt.nodeDied
	rt.mon.onJoin = rt.nodeJoined
	rt.metrics = newRouterMetrics(func() int64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return int64(len(rt.routes))
	}, rt.mon.views)
	return rt, nil
}

// Start launches health probing and, when gossip peers are configured,
// the route-replication loop.
func (rt *Router) Start() {
	rt.mon.start()
	if len(rt.gossipPeers) > 0 {
		go rt.replicateLoop(rt.cfg.ProbeInterval)
	} else {
		close(rt.repDone)
	}
}

// Close stops health probing and replication.
func (rt *Router) Close() {
	rt.stopRepOnce.Do(func() { close(rt.stopRep) })
	<-rt.repDone
	rt.mon.close()
}

// nodeDied drops the node from the ring and requeues its in-flight
// routes onto ring successors (health-monitor callback). Only routes
// this router originated are swept — the origin router of a replica
// runs the same sweep, and two routers racing to requeue one job would
// double-execute it. A replica whose origin died requeues lazily, on
// the first client request that observes the worker failure.
func (rt *Router) nodeDied(node string) {
	rt.log.Warn("node dead; requeueing its routes", "node", node)
	rt.mu.Lock()
	rt.ring.Remove(node)
	routes := make([]*route, 0, len(rt.order))
	for _, id := range rt.order {
		routes = append(routes, rt.routes[id])
	}
	rt.mu.Unlock()
	for _, ro := range routes {
		if ro.origin != rt.token {
			continue
		}
		n, _, terminal := ro.snapshot()
		if n == node && !terminal {
			rt.requeueRoute(ro, node, false)
		}
	}
}

// nodeJoined restores a recovered node to the ring (health-monitor
// callback); keys it owns flow back on the next submissions.
func (rt *Router) nodeJoined(node string) {
	rt.mu.Lock()
	rt.ring.Add(node)
	rt.mu.Unlock()
}

// successors lists the live candidates for a content address: the ring
// owner first, then the nodes that inherit the key as owners disappear.
func (rt *Router) successors(hash string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.Successors(hash, rt.ring.Len())
}

// nextID mints a router job ID. With an origin token the ID is
// `fleet-<token>-<seq>` so sibling routers can attribute it; tokenless
// mode keeps the flat `fleet-<seq>` format. IDs are allocated before
// submission: the ID seeds the idempotency key stamped on the submit
// RPC, which is what makes retrying that RPC safe.
func (rt *Router) nextID() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.seq++
	if rt.token != "" {
		return fmt.Sprintf("fleet-%s-%06d", rt.token, rt.seq)
	}
	return fmt.Sprintf("fleet-%06d", rt.seq)
}

// nextBatchUnit mints the idempotency unit of a router batch from a
// sequence of its own, so batches never shift the job ID sequence.
func (rt *Router) nextBatchUnit() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.batchSeq++
	return fmt.Sprintf("batch-%s-%06d", rt.epoch, rt.batchSeq)
}

// newRoute registers an accepted placement under a pre-allocated ID.
// trace is the router-side span that parented the submission (zero
// with tracing off).
func (rt *Router) newRoute(id, hash, tenant string, specJSON []byte, node string, st service.JobStatus, trace obs.SpanContext) *route {
	rt.mu.Lock()
	ro := &route{
		id:       id,
		hash:     hash,
		tenant:   tenant,
		specJSON: specJSON,
		origin:   rt.token,
		node:     node,
		remoteID: st.ID,
		last:     st,
		terminal: st.State.Terminal(),
		trace:    trace,
	}
	rt.routes[ro.id] = ro
	rt.order = append(rt.order, ro.id)
	rt.mu.Unlock()
	return ro
}

// lookup resolves a router job ID.
func (rt *Router) lookup(id string) (*route, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ro, ok := rt.routes[id]
	return ro, ok
}

// proxied is a router-to-worker job RPC: the caller's deadline rides
// along as X-Deadline so the worker shares the client's time budget, its
// span as traceparent so the worker-side spans land in the same trace,
// and the router.proxy fault point fires first — an armed spec surfaces
// exactly like a network failure, on every proxy path at once.
func proxied(method, url string, limit int64) call {
	return call{method: method, url: url, deadline: true, trace: true, fault: fpProxy, limit: limit}
}

// proxyFailed counts a worker RPC that got no answer: a proxy error, and
// one more step toward the node's death threshold.
func (rt *Router) proxyFailed(node string) {
	rt.metrics.proxyErrors.Inc()
	rt.mon.reportFailure(node)
}

// startProxySpan opens a router-side span, continuing the client's
// trace when the request carries a traceparent header. Returns nil
// (a no-op span) when tracing is disabled.
func (rt *Router) startProxySpan(h http.Header, name string) *obs.Span {
	if rt.tracer == nil {
		return nil
	}
	parent, _ := obs.Extract(h)
	return rt.tracer.StartSpan(name, parent)
}

// postWithRetry POSTs body to one node under the shared retry policy.
// An attempt that got no answer backs off and retries, counting toward
// the node's death threshold each time; any HTTP status is a definitive
// answer and returns immediately — one whose body failed to read or ran
// over limit as a proxy error and a non-nil err. The idempotency key is what makes the retry safe:
// if the first attempt's response was lost after the worker accepted,
// the replay collapses onto the already-accepted jobs instead of
// executing twice.
func (rt *Router) postWithRetry(ctx context.Context, node, path string, body []byte, tenant, idemKey string, limit int64) (rep reply, err error) {
	c := proxied(http.MethodPost, node+path, limit)
	c.body, c.tenant, c.idemKey = body, tenant, idemKey
	err = rt.retry.Do(ctx, func(int) error {
		var cerr error
		rep, cerr = c.do(ctx, rt.client)
		switch {
		case cerr == nil:
			return nil
		case rep.code == 0:
			rt.proxyFailed(node)
			return cerr
		}
		rt.metrics.proxyErrors.Inc()
		return resilience.Permanent(cerr)
	})
	return rep, err
}

// submitTo is the spill walk of every submission, a lone job or a
// sub-batch: it POSTs body to path on each candidate in turn (the ring
// owner first, then its successors) and places the submission on the
// first node that accepts it (200/202), decoding the response into T.
// Shed (429) and draining (503) responses spill to the next candidate —
// content addressing makes cross-node placement safe, it only trades
// cache locality for availability. Network failures retry under the
// shared policy and count toward the node's death threshold; any other
// status is a definitive answer, relayed without spilling. An answer the
// router cannot use (a body over maxBatchBytes, or an acceptance that
// does not decode) spills too. When no node accepts, node is "" and rf is
// the last refusal (a 502 naming an unusable answer; nil when no worker
// answered at all). unit seeds the per-target idempotency key.
func submitTo[T any](ctx context.Context, rt *Router, candidates []string, path string, body []byte, tenant, unit string) (node string, out T, code int, rf *refusal) {
	for _, n := range candidates {
		rep, err := rt.postWithRetry(ctx, n, path, body, tenant, resilience.IdempotencyKey(unit, n), maxBatchBytes)
		if err != nil {
			if rep.code != 0 {
				rf = unusable(n, rep.code, err)
			}
			continue // already counted
		}
		switch rep.code {
		case http.StatusOK, http.StatusAccepted:
			var v T
			if err := json.Unmarshal(rep.body, &v); err != nil {
				rt.metrics.proxyErrors.Inc()
				rf = unusable(n, rep.code, err)
				continue
			}
			return n, v, rep.code, nil
		case http.StatusTooManyRequests:
			rt.metrics.spills.Inc()
			fallthrough
		case http.StatusServiceUnavailable:
			obs.AddEvent(ctx, "spill", obs.String("node", n), obs.Int("code", rep.code))
			rf = &refusal{code: rep.code, body: rep.body, retryAfter: rep.header.Get("Retry-After")}
		default:
			return "", out, rep.code, &refusal{code: rep.code, body: rep.body, contentType: rep.header.Get("Content-Type")}
		}
	}
	return "", out, 0, rf
}

// refusal is a worker response relayed verbatim, or, when bad is set,
// the router's own error about an answer it could not use.
type refusal struct {
	code        int
	body        []byte
	retryAfter  string
	contentType string
	bad         string
}

// unusable is the 502 refusal for node's answer with status code whose
// body failed with err.
func unusable(node string, code int, err error) *refusal {
	return &refusal{code: http.StatusBadGateway, bad: fmt.Sprintf("worker %s answered %d unusably: %v", node, code, err)}
}

// relayRefusal answers with a worker's refusal, or — nil, when no
// worker answered at all — with 503 "no live workers".
func (rt *Router) relayRefusal(w http.ResponseWriter, rf *refusal) {
	if rf == nil {
		service.WriteBackpressure(w, http.StatusServiceUnavailable, "no live workers")
		return
	}
	if rf.bad != "" {
		service.WriteError(w, rf.code, "%s", rf.bad)
		return
	}
	ct := rf.contentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	if rf.retryAfter != "" {
		w.Header().Set("Retry-After", rf.retryAfter)
	}
	w.WriteHeader(rf.code)
	_, _ = w.Write(rf.body)
}

// requeueRoute replays a route's submission on the failed node's ring
// successors. The per-route lock makes the requeue single-flight: the
// first caller to observe the death resubmits, every concurrent
// observer sees the placement already moved and backs off. force
// ignores the terminal flag — used when the worker holding a finished
// result is gone and the table must be recomputed (idempotent by
// content addressing). Reports whether the route points at a live
// placement afterwards.
func (rt *Router) requeueRoute(ro *route, failed string, force bool) bool {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	if ro.node != failed {
		return true // someone else already moved it
	}
	if ro.terminal && !force {
		return false
	}
	orphanID := ro.remoteID
	// The requeue span continues the job's original trace (the stored
	// proxy-span identity survives node deaths and replication), so the
	// replacement execution's worker spans land in the same tree as the
	// first attempt's — one trace tells the job's whole story.
	var sp *obs.Span
	if rt.tracer != nil && ro.trace.Valid() {
		sp = rt.tracer.StartSpan("router.requeue", ro.trace)
		sp.SetAttr(obs.String("job_id", ro.id), obs.String("failed", failed))
	}
	defer sp.End()
	// Background context: the requeue must not die with whichever
	// client request happened to observe the failure.
	ctx := obs.ContextWith(context.Background(), sp)
	for _, n := range rt.successors(ro.hash) {
		if n == failed {
			continue
		}
		// The requeue fault point fires per successor attempt; an armed
		// spec skips this candidate exactly as a failed resubmission would.
		if resilience.P(fpRequeue).FireCtx(ctx) != nil {
			rt.metrics.proxyErrors.Inc()
			continue
		}
		// Any answer but an acceptance (shed, draining, refused, or no
		// answer at all) moves on to the next successor.
		rep, err := rt.postWithRetry(ctx, n, "/v1/jobs", ro.specJSON, ro.tenant, resilience.IdempotencyKey(ro.id, n), maxSpecBytes)
		var st service.JobStatus
		if err != nil || (rep.code != http.StatusOK && rep.code != http.StatusAccepted) || json.Unmarshal(rep.body, &st) != nil {
			continue
		}
		ro.node = n
		ro.remoteID = st.ID
		ro.last = st
		ro.terminal = st.State.Terminal()
		ro.requeues++
		rt.metrics.requeues.Inc()
		sp.SetAttr(obs.String("node", n), obs.Int("requeues", ro.requeues))
		rt.log.Info("route requeued", "job_id", ro.id, "from", failed, "to", n, "trace_id", ro.trace.TraceID.String())
		// Best-effort cancel of the orphan on the failed node. A true
		// death makes this a no-op (nothing is listening); a false
		// positive — the node was alive and merely slow — leaves a
		// duplicate execution running there, and this is what stops
		// it, keeping one logical job at one execution fleet-wide.
		go rt.cancelOrphan(failed, orphanID)
		return true
	}
	sp.SetAttr(obs.String("error", "no successor accepted"))
	rt.log.Warn("route requeue failed", "job_id", ro.id, "from", failed)
	return false
}

// Handler returns the router's HTTP surface: the snnmapd job API
// proxied over the fleet, plus the fleet topology view.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("POST /v1/batches", rt.handleBatch)
	mux.HandleFunc("GET /v1/jobs", rt.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", rt.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleEvents)
	mux.HandleFunc("GET /v1/fleet", rt.handleFleet)
	mux.HandleFunc("GET /v1/fleet/routes", rt.handleRoutes)
	mux.HandleFunc("GET /v1/version", rt.handleVersion)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	// Parse X-Deadline into the request context here, at the edge: the
	// proxy hop re-stamps outgoing worker RPCs from that context
	// (SetDeadlineHeader), so the client's one budget bounds the whole
	// fan-out instead of evaporating at the router.
	return resilience.WithDeadline(mux)
}

// handleSubmit places one job on the ring owner of its content address,
// spilling to successors when the owner sheds or drains.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	specs, hashes, ok := service.DecodeSubmission(w, r, false)
	if !ok {
		return
	}
	hash := hashes[0]
	specJSON, err := json.Marshal(specs[0])
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := r.Header.Get("X-Tenant")

	// The ID is minted before submission: with the router's epoch it
	// seeds the per-target idempotency key, so a retried submit RPC
	// collapses onto the first attempt's job instead of executing twice.
	// A client-supplied key takes precedence as the unit — the client's
	// own resubmission of the same intent (through any router) then
	// lands on the same worker-side key and replays the in-flight job
	// instead of forking a twin.
	id := rt.nextID()
	unit := rt.epoch + "/" + id
	if ck := r.Header.Get(service.IdempotencyKeyHeader); ck != "" {
		unit = ck
	}

	// The proxy span parents the worker-side job span (via traceparent on
	// the submit RPC); its identity is kept on the route so a later
	// requeue — possibly by a sibling router — continues the same trace.
	sp := rt.startProxySpan(r.Header, "router.proxy")
	sp.SetAttr(obs.String("job_id", id), obs.String("hash", hash))
	defer sp.End()
	ctx := obs.ContextWith(r.Context(), sp)

	node, st, code, rf := submitTo[service.JobStatus](ctx, rt, rt.successors(hash), "/v1/jobs", specJSON, tenant, unit)
	if node == "" {
		if rf == nil {
			sp.SetAttr(obs.String("error", "no live workers"))
		} else {
			sp.SetAttr(obs.Int("refused", rf.code))
		}
		rt.relayRefusal(w, rf)
		return
	}
	sp.SetAttr(obs.String("node", node))
	ro := rt.newRoute(id, hash, tenant, specJSON, node, st, sp.Context())
	rt.metrics.routed.Inc(node)
	service.WriteJSON(w, code, ro.rewrite(st))
}

// handleStatus reports a job's status. A route whose stored status is
// terminal answers from the router's snapshot (terminal statuses never
// change, and must survive the worker that produced them). Every other
// route is proxied — including one an SSE relay marked terminal without
// fetching the final status, which is then stored for the next call. A
// dead or amnesiac worker (connection failure, or 404 from a restarted
// process that lost its store) triggers a requeue.
func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	ro, ok := rt.resolve(w, r)
	if !ok {
		return
	}
	if st := ro.lastStatus(); st.State.Terminal() {
		service.WriteJSON(w, http.StatusOK, st)
		return
	}
	node, remoteID, _ := ro.snapshot()
	rep, err := proxied(http.MethodGet, node+"/v1/jobs/"+remoteID, maxSpecBytes).do(r.Context(), rt.client)
	if rep.code == 0 {
		rt.proxyFailed(node)
	}
	if rep.code == 0 || rep.code == http.StatusNotFound {
		rt.requeueRoute(ro, node, false)
		service.WriteJSON(w, http.StatusOK, ro.lastStatus())
		return
	}
	rt.relayStatus(w, ro, rep.body, err)
}

// relayStatus decodes a worker's job status, records it on the route
// and answers with it under the router's job ID.
func (rt *Router) relayStatus(w http.ResponseWriter, ro *route, body []byte, err error) {
	var st service.JobStatus
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, "decoding worker status: %v", err)
		return
	}
	ro.observe(st)
	service.WriteJSON(w, http.StatusOK, ro.rewrite(st))
}

// handleList reports every route's last observed status, in submission
// order — a fleet-wide view without a fleet-wide fan-out.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	routes := make([]*route, 0, len(rt.order))
	for _, id := range rt.order {
		routes = append(routes, rt.routes[id])
	}
	rt.mu.Unlock()
	resp := struct {
		Jobs []service.JobStatus `json:"jobs"`
	}{Jobs: make([]service.JobStatus, 0, len(routes))}
	for _, ro := range routes {
		resp.Jobs = append(resp.Jobs, ro.lastStatus())
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

// handleCancel propagates DELETE to the owning worker. When the worker
// is unreachable the cancel still wins: the route is marked canceled
// locally — the job either died with its node or will be discarded when
// the worker's answer has no route to land on.
func (rt *Router) handleCancel(w http.ResponseWriter, r *http.Request) {
	ro, ok := rt.resolve(w, r)
	if !ok {
		return
	}
	node, remoteID, _ := ro.snapshot()
	rep, err := proxied(http.MethodDelete, node+"/v1/jobs/"+remoteID, maxSpecBytes).do(r.Context(), rt.client)
	if rep.code == 0 {
		rt.proxyFailed(node)
		ro.mu.Lock()
		if !ro.terminal {
			ro.terminal = true
			ro.last.State = service.JobCanceled
			ro.last.Error = "canceled; worker " + node + " unreachable"
		}
		st := ro.rewrite(ro.last)
		ro.mu.Unlock()
		service.WriteJSON(w, http.StatusOK, st)
		return
	}
	if rep.code != http.StatusOK {
		// Conflict and friends: relay, with the worker's job ID masked by
		// the router's.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rep.code)
		_, _ = w.Write(bytes.ReplaceAll(rep.body, []byte(remoteID), []byte(ro.id)))
		return
	}
	rt.relayStatus(w, ro, rep.body, err)
}

// handleResult relays a done job's table bytes verbatim — the fleet's
// byte-identity guarantee rides on this handler never re-encoding. When
// the worker holding the result is gone, the job is re-placed (force:
// recomputing an identical canonical spec reproduces the identical
// table) and the client advised to retry.
func (rt *Router) handleResult(w http.ResponseWriter, r *http.Request) {
	ro, ok := rt.resolve(w, r)
	if !ok {
		return
	}
	node, remoteID, _ := ro.snapshot()
	path := "/v1/jobs/" + remoteID + "/result"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	rep, _ := call{method: http.MethodGet, url: node + path, accept: r.Header.Get("Accept"),
		limit: maxSpecBytes, stream: func(resp *http.Response) bool {
			if resp.StatusCode != http.StatusOK {
				return false
			}
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.WriteHeader(http.StatusOK)
			_, _ = io.Copy(w, resp.Body)
			return true
		}}.do(r.Context(), rt.client)
	switch rep.code {
	case 0:
		rt.proxyFailed(node)
		rt.requeueRoute(ro, node, true)
		service.WriteBackpressure(w, http.StatusServiceUnavailable,
			"worker %s unreachable; job requeued, retry for the recomputed result", node)
	case http.StatusOK: // streamed
	default:
		w.Header().Set("Content-Type", rep.header.Get("Content-Type"))
		w.WriteHeader(rep.code)
		_, _ = w.Write(bytes.ReplaceAll(rep.body, []byte(remoteID), []byte(ro.id)))
	}
}

// handleTrace serves the job's end-to-end span tree: the worker's
// recorded tree (fetched live) merged with this router's own spans for
// the trace — proxy, scatter and requeue spans. A dead worker only
// shrinks the tree: its spans are lost but the router-side spans still
// render, which is exactly the partial story an operator debugging the
// death needs. The route's stored trace identity survives requeues and
// replication, so any sibling router serves the same trace.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	ro, ok := rt.resolve(w, r)
	if !ok {
		return
	}
	node, remoteID, _ := ro.snapshot()
	var nodes []*obs.SpanNode
	traceID := ""
	rep, _ := proxied(http.MethodGet, node+"/v1/jobs/"+remoteID+"/trace", maxBatchBytes).do(r.Context(), rt.client)
	var wt obs.Tree
	if rep.decode(&wt) {
		nodes = wt.Flatten()
		traceID = wt.TraceID
	}
	if tc := ro.traceContext(); rt.tracer != nil && tc.Valid() {
		nodes = append(nodes, rt.tracer.Nodes(tc.TraceID)...)
		traceID = tc.TraceID.String()
	}
	if len(nodes) == 0 {
		service.WriteError(w, http.StatusNotFound, "no trace recorded for job %q", ro.id)
		return
	}
	service.WriteJSON(w, http.StatusOK, obs.BuildTree(traceID, nodes))
}

// cancelOrphan DELETEs a job left behind on a node the router stopped
// trusting (requeue already moved the route elsewhere). Failures are
// expected — the node is usually gone — and ignored.
func (rt *Router) cancelOrphan(node, remoteID string) {
	_, _ = call{method: http.MethodDelete, url: node + "/v1/jobs/" + remoteID,
		timeout: 5 * time.Second, limit: maxSpecBytes}.do(context.Background(), rt.client)
}

// handleEvents relays the worker's SSE stream. Events carry no job IDs,
// so frames pass through byte-for-byte; the router only watches for the
// terminal state event (normal end of stream) and, when the stream
// breaks before one, requeues the job and reattaches to its new worker
// — emitting an explicit `requeued` event so subscribers know the
// following replay restarts the history.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	ro, ok := rt.resolve(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		node, remoteID, _ := ro.snapshot()
		sawTerminal := false
		_, err := call{method: http.MethodGet, url: node + "/v1/jobs/" + remoteID + "/events",
			stream: func(resp *http.Response) bool {
				sawTerminal = rt.relaySSE(w, flusher, resp.Body, ro)
				return true
			}}.do(r.Context(), rt.stream)
		if sawTerminal || r.Context().Err() != nil {
			return // done, or the client went away
		}
		// No stream, or one cut before the job finished: the worker died.
		if err != nil {
			rt.metrics.proxyErrors.Inc()
		}
		rt.mon.reportFailure(node)
		if !rt.requeueRoute(ro, node, false) {
			return
		}
		fmt.Fprintf(w, "event: requeued\ndata: {\"from\":%q}\n\n", node)
		flusher.Flush()
	}
}

// relaySSE copies SSE frames from the worker to the client, flushing
// per frame, and reports whether a terminal state event went through.
// A slow client applies backpressure here, which parks the worker-side
// cursor — its event log is lossless, so nothing is dropped end to end.
func (rt *Router) relaySSE(w http.ResponseWriter, flusher http.Flusher, body io.Reader, ro *route) bool {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), maxSpecBytes)
	inState := false
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return terminal
		}
		switch {
		case line == "event: state":
			inState = true
		case inState && strings.HasPrefix(line, "data: "):
			inState = false
			if strings.Contains(line, `"state":"done"`) ||
				strings.Contains(line, `"state":"failed"`) ||
				strings.Contains(line, `"state":"canceled"`) {
				terminal = true
				ro.mu.Lock()
				ro.terminal = true
				ro.mu.Unlock()
			}
		case line == "":
			flusher.Flush()
		}
	}
	return terminal
}

// handleBatch scatters a batch across the fleet by ring owner and
// merges the per-worker responses back into input order. Each sub-batch
// takes the same spill walk as a single job, along its owner's ring
// successors; each worker still groups its share by session key, so warm
// sessions are built at most once per sub-batch. If any sub-batch is
// refused everywhere the whole batch fails with the refusal, and
// already-placed sub-batches are canceled best-effort — a batch is
// admitted all-or-nothing from the caller's point of view.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	specs, hashes, ok := service.DecodeSubmission(w, r, true)
	if !ok {
		return
	}
	tenant := r.Header.Get("X-Tenant")
	// Every sub-batch POST carries an idempotency key, as a lone job's
	// does: the batch's unit (the client's key when it sent one) and the
	// sub-batch's owner. The unit has its own sequence, so the job IDs
	// minted below stay the same.
	unit := r.Header.Get(service.IdempotencyKeyHeader)
	if unit == "" {
		unit = rt.nextBatchUnit()
	}

	// One batch span covers the scatter; each per-owner sub-batch gets a
	// scatter child, which in turn parents that worker's batch span — so
	// every job of the batch hangs off one trace, as siblings.
	batchSp := rt.startProxySpan(r.Header, "router.batch")
	batchSp.SetAttr(obs.Int("jobs", len(specs)))
	defer batchSp.End()

	// Scatter: sub-batch per ring owner, input order preserved within
	// each; it spills along the successors of the hash that opened it. An
	// empty ring (every worker dead) fails fast.
	type subBatch struct {
		candidates []string
		indices    []int
	}
	var order []string
	subs := map[string]*subBatch{}
	for i, h := range hashes {
		cands := rt.successors(h)
		if len(cands) == 0 {
			rt.relayRefusal(w, nil)
			return
		}
		owner := cands[0]
		sb := subs[owner]
		if sb == nil {
			sb = &subBatch{candidates: cands}
			subs[owner] = sb
			order = append(order, owner)
		}
		sb.indices = append(sb.indices, i)
	}

	type placed struct {
		node     string
		statuses []service.JobStatus
		indices  []int
		trace    obs.SpanContext // the scatter span that parented the sub-batch
	}
	var placements []placed
	rollback := func() {
		for _, p := range placements {
			for _, st := range p.statuses {
				if !st.State.Terminal() {
					_, _ = proxied(http.MethodDelete, p.node+"/v1/jobs/"+st.ID, maxSpecBytes).do(context.Background(), rt.client)
				}
			}
		}
	}
	for _, owner := range order {
		sb := subs[owner]
		req := service.BatchRequest{Jobs: make([]snnmap.JobSpec, 0, len(sb.indices))}
		for _, i := range sb.indices {
			req.Jobs = append(req.Jobs, specs[i])
		}
		body, err := json.Marshal(req)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		scatterSp := batchSp.StartChild("router.scatter")
		scatterSp.SetAttr(obs.String("owner", owner), obs.Int("jobs", len(sb.indices)))
		node, sub, _, rf := submitTo[service.BatchResponse](obs.ContextWith(r.Context(), scatterSp), rt, sb.candidates, "/v1/batches", body, tenant, unit+"/"+owner)
		if node == "" {
			scatterSp.SetAttr(obs.String("error", "sub-batch refused"))
			scatterSp.End()
			rollback()
			rt.relayRefusal(w, rf)
			return
		}
		scatterSp.SetAttr(obs.String("node", node))
		scatterSp.End()
		// Registered before the count check, so a malformed answer's
		// accepted jobs are rolled back too.
		placements = append(placements, placed{node: node, statuses: sub.Jobs, indices: sb.indices, trace: scatterSp.Context()})
		if len(sub.Jobs) != len(sb.indices) {
			rollback()
			service.WriteError(w, http.StatusBadGateway, "worker %s returned %d statuses for %d jobs", node, len(sub.Jobs), len(sb.indices))
			return
		}
	}

	// Merge: one route per distinct remote job (duplicate hashes collapse
	// worker-side onto one job; they share a route here too), statuses in
	// input order.
	rt.metrics.batches.Inc()
	resp := service.BatchResponse{Jobs: make([]service.JobStatus, len(specs))}
	shared := map[string]*route{}
	for _, p := range placements {
		for k, st := range p.statuses {
			i := p.indices[k]
			key := p.node + "|" + st.ID
			ro := shared[key]
			if ro == nil {
				specJSON, err := json.Marshal(specs[i])
				if err != nil {
					service.WriteError(w, http.StatusBadRequest, "%v", err)
					return
				}
				ro = rt.newRoute(rt.nextID(), hashes[i], tenant, specJSON, p.node, st, p.trace)
				rt.metrics.routed.Inc(p.node)
				shared[key] = ro
			}
			resp.Jobs[i] = ro.rewrite(st)
		}
	}
	service.WriteJSON(w, http.StatusOK, resp)
}

// FleetView is the wire shape of GET /v1/fleet: the router's membership
// view (also the gossip payload merged by peer routers).
type FleetView struct {
	Origin   string     `json:"origin,omitempty"` // this router's ID token
	VNodes   int        `json:"vnodes"`
	Nodes    []NodeView `json:"nodes"`
	Routes   int        `json:"routes"`
	Requeues int64      `json:"requeues"`
	// Chaos reports the fault-injection sites this process has hit —
	// per-site hit/fired counters plus the armed flag — so a -chaos-spec
	// run's outcomes are observable without grepping logs. Empty when no
	// site has registered yet. (Gossip peers decode only Nodes; the
	// extra field is ignored by the merge.)
	Chaos map[string]resilience.PointStats `json:"chaos,omitempty"`
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	views := rt.mon.views()
	rt.mu.Lock()
	routes := len(rt.routes)
	vnodes := rt.ring.vnodes
	rt.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, FleetView{
		Origin:   rt.token,
		VNodes:   vnodes,
		Nodes:    views,
		Routes:   routes,
		Requeues: rt.metrics.requeues.Value(),
		Chaos:    resilience.Snapshot(),
	})
}

func (rt *Router) handleVersion(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, struct {
		Service string `json:"service"`
		Mode    string `json:"mode"`
		Peers   int    `json:"peers"`
	}{Service: "snnmapd", Mode: "fleet-router", Peers: len(rt.mon.nodes())})
}

// handleHealthz: the router is stateless and always live; worker health
// is reported per node on /v1/fleet.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.metrics.reg.WritePrometheus(w)
}
