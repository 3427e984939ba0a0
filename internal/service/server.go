package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	snnmap "repro"
	"repro/internal/fleet/resilience"
	"repro/internal/obs"
)

// maxSpecBytes bounds a submission body; job specs are a handful of
// short fields, so anything larger is malformed or hostile.
// maxBatchBytes bounds a batch body (many specs).
const (
	maxSpecBytes  = 1 << 20
	maxBatchBytes = 8 << 20
)

// Handler returns the daemon's HTTP surface on a fresh ServeMux,
// wrapped in the deadline middleware: an X-Deadline header (stamped by
// the fleet router from the client's context) becomes this request's
// context deadline, and a budget already spent on arrival is answered
// 504 before any work happens.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/batches", s.handleBatch)
	mux.HandleFunc("GET /v1/cache", s.handleCacheIndex)
	mux.HandleFunc("GET /v1/cache/{hash}", s.handleCacheFetch)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return resilience.WithDeadline(mux)
}

// WriteJSON renders v as indented JSON (trailing newline included), the
// uniform response shape of every JSON endpoint — the worker's and the
// fleet router's.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error response shape: a human-readable
// message plus a stable machine-readable code, and — on backpressure
// responses — the advised retry delay mirroring the Retry-After header.
type errorBody struct {
	Error string `json:"error"`
	// Code discriminates error classes without string matching:
	// bad_request, not_found, conflict, overloaded, draining.
	Code string `json:"code"`
	// RetryAfterMs is set on load-shed (429) and draining (503)
	// responses: the client should back off this long (overloaded) or
	// move to another node (draining).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// errCode derives the stable error code of an HTTP status.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusServiceUnavailable:
		return "draining"
	}
	return "error"
}

// WriteError renders the uniform error body for status code.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...), Code: errCode(code)})
}

// retryAfter is the backoff every shed (429) or draining (503) response
// advises, worker or router.
const retryAfter = time.Second

// WriteBackpressure renders a shed (429) or draining (503) response with
// the Retry-After header and its machine-readable body twin.
func WriteBackpressure(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	WriteJSON(w, status, errorBody{
		Error:        fmt.Sprintf(format, args...),
		Code:         errCode(status),
		RetryAfterMs: retryAfter.Milliseconds(),
	})
}

// shed refuses an admission-bound violation: 429, Retry-After, counter.
func (s *Server) shed(w http.ResponseWriter, err error) {
	s.metrics.shed.Inc()
	WriteBackpressure(w, http.StatusTooManyRequests, "%v (backlog %d)", err, s.queue.backlog())
}

// unavailable refuses work while draining.
func (s *Server) unavailable(w http.ResponseWriter) {
	WriteBackpressure(w, http.StatusServiceUnavailable, "draining: no new jobs accepted")
}

// isDraining snapshots the drain flag.
func (s *Server) isDraining() bool {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	return s.draining
}

// cachedTable consults the tiered result cache: the local LRU first,
// then — on a miss, when the node is fleet-attached — the FetchPeer hook
// against the content address's ring owner. A peer hit is promoted into
// the local tier so the next identical request is answered without a
// network hop.
// The lookup span (hit/miss, tier) hangs off whatever span ctx carries.
func (s *Server) cachedTable(ctx context.Context, hash string) (*snnmap.Table, bool) {
	ctx, sp := obs.StartChild(ctx, "cache.lookup")
	defer sp.End()
	if table, ok := s.cache.get(hash); ok {
		s.metrics.cacheHits.Inc()
		sp.SetAttr(obs.Bool("hit", true), obs.String("tier", "local"))
		return table, true
	}
	s.metrics.cacheMisses.Inc()
	if s.cfg.FetchPeer == nil {
		sp.SetAttr(obs.Bool("hit", false))
		return nil, false
	}
	table, ok := s.cfg.FetchPeer(ctx, hash)
	countLookup(ok, s.metrics.peerHits, s.metrics.peerMisses)
	if !ok {
		sp.SetAttr(obs.Bool("hit", false), obs.String("tier", "peer"))
		return nil, false
	}
	s.cache.put(hash, table)
	sp.SetAttr(obs.Bool("hit", true), obs.String("tier", "peer"))
	return table, true
}

// finishCached materializes a born-done job answered from the cache
// tiers: created, finished and event-logged without touching a worker.
func (s *Server) finishCached(spec snnmap.JobSpec, hash string, table *snnmap.Table, tr *jobTrace) JobStatus {
	now := s.cfg.Now()
	j := s.store.create(spec, hash, now, tr)
	s.store.setCached(j)
	st := s.store.finish(j, JobDone, table, "", now)
	s.metrics.jobFinished(JobDone, false)
	if tr != nil {
		tr.root.SetAttr(obs.Bool("cached", true))
		tr.finish(JobDone, "")
	}
	j.events.append("state", statePayload{State: JobDone, Cached: true})
	j.events.close()
	return st
}

// handleSubmit accepts a mapping job: a batch of one, admitted through
// the same path as POST /v1/batches. An identical canonical spec already
// completed is answered 200 from the result cache — the job is born
// done, no pipeline touched. Otherwise the job is queued for the worker
// pool and the response is 202 with the job's status (poll
// GET /v1/jobs/{id}, stream GET /v1/jobs/{id}/events).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	specs, hashes, ok := DecodeSubmission(w, r, false)
	if !ok {
		return
	}
	// The job root span continues the router's trace (traceparent) or
	// starts a fresh one; the cache lookup becomes its first child.
	tr := s.startJobTrace(r.Header, specs[0])
	sts, replayed, ok := s.admit(w, r, specs, hashes, tr.rootSpan(), func(snnmap.JobSpec) *jobTrace { return tr })
	if !ok {
		return
	}
	code := http.StatusAccepted
	if sts[0].Cached || replayed {
		code = http.StatusOK
	}
	WriteJSON(w, code, sts[0])
}

// BatchRequest is the wire shape of POST /v1/batches: many job specs
// submitted as one unit.
type BatchRequest struct {
	Jobs []snnmap.JobSpec `json:"jobs"`
}

// BatchResponse mirrors the request order: one status per submitted
// spec. Duplicate canonical specs within a batch collapse onto one job,
// whose status repeats at each duplicate's index.
type BatchResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// DecodeSubmission reads a submission body — one JobSpec on
// POST /v1/jobs, a {"jobs": [...]} batch on POST /v1/batches — and
// normalizes and content-addresses every spec, in request order. It is
// the decode step of worker and router alike, so both answer a malformed
// body with the same 400, written here; ok is false then.
func DecodeSubmission(w http.ResponseWriter, r *http.Request, batch bool) (specs []snnmap.JobSpec, hashes []string, ok bool) {
	var req BatchRequest
	var into any = &req
	limit, what := int64(maxBatchBytes), "batch"
	if !batch {
		req.Jobs = make([]snnmap.JobSpec, 1)
		into, limit, what = &req.Jobs[0], maxSpecBytes, "job spec"
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return nil, nil, false
	}
	if len(req.Jobs) == 0 {
		WriteError(w, http.StatusBadRequest, "empty batch")
		return nil, nil, false
	}
	hashes = make([]string, len(req.Jobs))
	for i, spec := range req.Jobs {
		norm, err := spec.Normalize()
		if err != nil {
			msg := err.Error()
			if batch {
				msg = fmt.Sprintf("jobs[%d]: %v", i, err)
			}
			WriteError(w, http.StatusBadRequest, "%s", msg)
			return nil, nil, false
		}
		req.Jobs[i], hashes[i] = norm, norm.Hash()
	}
	return req.Jobs, hashes, true
}

// handleBatch accepts N job specs as one submission, admitted all or
// nothing (see admit). The batch span is the common parent of every job
// in the batch: the router's scatter span (traceparent) parents it, and
// each job's root span becomes its child, so a scattered batch renders
// as sibling jobs under one trace.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	specs, hashes, ok := DecodeSubmission(w, r, true)
	if !ok {
		return
	}
	var batchSp *obs.Span
	if s.tracer != nil {
		parent, _ := obs.Extract(r.Header)
		batchSp = s.tracer.StartSpan("batch", parent)
		batchSp.SetAttr(obs.Int("jobs", len(specs)))
	}
	defer batchSp.End()
	sts, _, ok := s.admit(w, r, specs, hashes, batchSp, func(spec snnmap.JobSpec) *jobTrace { return childJobTrace(batchSp, spec) })
	if !ok {
		return
	}
	s.metrics.batches.Inc()
	WriteJSON(w, http.StatusOK, BatchResponse{Jobs: sts})
}

// admit is the one admission path, for a lone job and a batch alike.
// Specs already answerable from the cache tiers are born done; the rest
// are deduped by content address and grouped by session key, one work
// group per key, so each warm session is resolved (and at most built)
// once per submission however many jobs share it. Admission is
// all-or-nothing: either every group fits the queue bounds or the whole
// submission is shed with 429 — there are no partially accepted
// batches. A draining node refuses with 503 before any work happens.
//
// A submission keyed with X-Idempotency-Key is recorded under its key;
// a resubmission with that key whose first attempt this node accepted
// (the response was lost on the way back) is answered with the jobs the
// first attempt created, index for index, and replayed is true.
//
// parent is the span the cache lookups hang off; trace opens the root
// span of each job admit creates. The statuses come back in input order,
// a duplicate repeating its job's status; on refusal admit has written
// the response and ok is false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, specs []snnmap.JobSpec, hashes []string, parent *obs.Span, trace func(snnmap.JobSpec) *jobTrace) (sts []JobStatus, replayed, ok bool) {
	if s.isDraining() {
		// Even cache-answerable submissions are refused: drain means
		// "this instance takes no new work", full stop.
		s.unavailable(w)
		return nil, false, false
	}
	idemKey := r.Header.Get(IdempotencyKeyHeader)
	if sts := s.replay(idemKey, hashes); sts != nil {
		s.metrics.idemReplays.Inc()
		return sts, true, true
	}

	// Plan: resolve the cache tiers per unique hash, dedupe, and group
	// the fresh specs by session key in first-appearance order. Nothing
	// is created in the store yet — admission must be able to shed the
	// submission without leaving half-created jobs behind.
	ctx := obs.ContextWith(r.Context(), parent)
	var (
		cachedTables = map[string]*snnmap.Table{} // hash → cached answer
		fresh        = map[string]*job{}          // hash → deduped fresh job (created after planning)
		groupOrder   []string                     // session keys, first appearance
		groupSpecs   = map[string][]int{}         // session key → indices of fresh specs
	)
	for i, spec := range specs {
		h := hashes[i]
		if _, seen := fresh[h]; seen || cachedTables[h] != nil {
			continue
		}
		// Content-address hit (local tier or a peer's): identical
		// canonical spec ⇒ byte-identical result, by the end-to-end
		// determinism the invariant harness pins.
		if table, ok := s.cachedTable(ctx, h); ok {
			cachedTables[h] = table
			continue
		}
		fresh[h] = nil
		key := spec.SessionKey()
		if _, ok := groupSpecs[key]; !ok {
			groupOrder = append(groupOrder, key)
		}
		groupSpecs[key] = append(groupSpecs[key], i)
	}

	// Admit atomically: create the fresh jobs and push every group in
	// one queue transaction; on shed, roll the created jobs back.
	s.submitMu.Lock()
	if s.draining {
		s.submitMu.Unlock()
		s.unavailable(w)
		return nil, false, false
	}
	groups := make([]*workGroup, 0, len(groupOrder))
	tenant := r.Header.Get("X-Tenant")
	for _, key := range groupOrder {
		g := &workGroup{tenant: tenant}
		for _, i := range groupSpecs[key] {
			j := s.store.create(specs[i], hashes[i], s.cfg.Now(), trace(specs[i]))
			j.trace.startQueued()
			fresh[hashes[i]] = j
			g.jobs = append(g.jobs, j)
		}
		groups = append(groups, g)
	}
	if err := s.queue.push(groups...); err != nil {
		s.submitMu.Unlock()
		for _, j := range fresh {
			s.store.remove(j.id)
		}
		s.shed(w, err)
		return nil, false, false
	}
	for _, g := range groups {
		for _, j := range g.jobs {
			s.metrics.jobsQueued.Add(1)
			j.events.append("state", statePayload{State: JobQueued})
		}
	}
	s.submitMu.Unlock()

	// Render statuses in input order: cached specs materialize born-done
	// jobs now (one per unique hash), fresh ones report queued.
	bornDone := map[string]JobStatus{}
	sts = make([]JobStatus, len(specs))
	for i, h := range hashes {
		if j := fresh[h]; j != nil {
			sts[i] = s.store.status(j)
			continue
		}
		st, ok := bornDone[h]
		if !ok {
			st = s.finishCached(specs[i], h, cachedTables[h], trace(specs[i]))
			bornDone[h] = st
		}
		sts[i] = st
	}
	if idemKey != "" {
		s.idem.record(idemKey, hashes, sts)
	}
	return sts, false, true
}

// handleCacheFetch serves this node's local result-cache tier to peers:
// the raw Table JSON under its content address, 404 on a miss. It is
// deliberately local-only — a peer's tiered lookup terminates here after
// one hop (the ring owner) instead of cascading through the fleet.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	table, ok := s.cache.get(hash)
	if !ok {
		WriteError(w, http.StatusNotFound, "no cached result for %q", hash)
		return
	}
	s.metrics.peerServes.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = table.WriteJSON(w) // a write error means the peer went away
}

// cacheIndexLimit bounds a cache-index response; a joining warmer only
// needs the hot end of the LRU, not a full dump.
const cacheIndexLimit = 512

// handleCacheIndex lists this node's locally cached content addresses,
// most recently used first, bounded by ?limit (capped server-side). A
// joining worker calls this on its new ring neighbors to plan which
// entries to warm — hashes are cheap to ship, tables are fetched one at
// a time through GET /v1/cache/{hash} under the warmer's rate limit.
func (s *Server) handleCacheIndex(w http.ResponseWriter, r *http.Request) {
	limit := cacheIndexLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		if n < limit {
			limit = n
		}
	}
	WriteJSON(w, http.StatusOK, struct {
		Hashes []string `json:"hashes"`
	}{Hashes: s.cache.keys(limit)})
}

// listResponse is the wire shape of GET /v1/jobs.
type listResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, listResponse{Jobs: s.store.list()})
}

// lookupJob resolves {id} or writes 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, s.store.status(j))
}

// handleCancel cancels a queued or running job. Terminal jobs are left
// untouched (409).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	state, acted := s.store.markCanceled(j, s.cfg.Now())
	if !acted {
		WriteError(w, http.StatusConflict, "job %s already %s", j.id, state)
		return
	}
	WriteJSON(w, http.StatusOK, s.store.status(j))
}

// handleResult serves a done job's Table. The format is negotiated from
// ?format=json|csv, falling back to the Accept header (text/csv selects
// CSV), defaulting to JSON. Both encodings are the library's canonical
// Table wire forms — the CSV bytes equal `snnmap ... -format csv` for
// the same canonical spec.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	table, state, errMsg := s.store.result(j)
	switch state {
	case JobDone:
	case JobFailed, JobCanceled:
		WriteError(w, http.StatusConflict, "job %s %s: %s", j.id, state, errMsg)
		return
	default:
		WriteError(w, http.StatusConflict, "job %s still %s", j.id, state)
		return
	}

	format := r.URL.Query().Get("format")
	if format == "" {
		if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/csv") {
			format = "csv"
		} else {
			format = "json"
		}
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = table.WriteJSON(w) // a write error means the client went away
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = table.WriteCSV(w)
	default:
		WriteError(w, http.StatusBadRequest, "unknown format %q (json, csv)", format)
	}
}

// handleEvents streams the job's stage progress as server-sent events:
// a full replay of history, then live events until the job completes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	serveSSE(w, r, j.events)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.info)
}

// healthzBody is the wire shape of GET /healthz.
type healthzBody struct {
	Status string `json:"status"`
}

// handleHealthz reports liveness: 200 "ok" while serving, 503
// "draining" once Drain began (load balancers stop routing, in-flight
// work finishes).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		WriteJSON(w, http.StatusServiceUnavailable, healthzBody{Status: "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, healthzBody{Status: "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}
