package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Route replication makes routers interchangeable: every router pulls
// its gossip peers' route tables on the probe cadence, so a job
// submitted through one router can be answered — status, result, SSE —
// by any sibling after the submitting router dies. Replication is
// pull-based and eventually consistent; the window between a submission
// and its first replication pull is covered by the 307 fallback below.
//
// IDs carry their origin: with RouterConfig.Self set, a router mints
// `fleet-<token>-<seq>` where token is derived from its own advertised
// URL. The token lets a sibling holding no replica yet distinguish "a
// peer minted this, redirect there" from "nobody minted this, 404".

// originToken derives a router's 6-hex-digit ID token from its
// normalized base URL.
func originToken(base string) string {
	return fmt.Sprintf("%06x", hash64(base)&0xffffff)
}

// originOf extracts the origin token from a router job ID, or "" for
// the tokenless single-router format.
func originOf(id string) string {
	parts := strings.Split(id, "-")
	if len(parts) == 3 && parts[0] == "fleet" && len(parts[1]) == 6 {
		return parts[1]
	}
	return ""
}

// routeRecord is one route's replication wire shape: everything a
// sibling needs to serve the job — and to requeue it if its worker
// later dies — without ever having seen the submission.
type routeRecord struct {
	ID       string            `json:"id"`
	Hash     string            `json:"hash"`
	Tenant   string            `json:"tenant,omitempty"`
	Spec     json.RawMessage   `json:"spec"`
	Node     string            `json:"node"`
	RemoteID string            `json:"remote_id"`
	Terminal bool              `json:"terminal"`
	Requeues int               `json:"requeues"`
	Last     service.JobStatus `json:"last"`
	// Trace is the route's trace identity in traceparent form ("" when
	// the origin router had tracing off). A sibling that later requeues
	// the replica parents its requeue span here, keeping one trace ID
	// across router deaths as well as worker deaths.
	Trace string `json:"trace,omitempty"`
}

// routeTable is the GET /v1/fleet/routes payload.
type routeTable struct {
	Origin string        `json:"origin"`
	Routes []routeRecord `json:"routes"`
}

// handleRoutes serves this router's own route table for peer
// replication. Only routes this router originated are served — adopted
// replicas stay out, so records flow origin→sibling and never bounce a
// stale copy back.
func (rt *Router) handleRoutes(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	routes := make([]*route, 0, len(rt.order))
	for _, id := range rt.order {
		ro := rt.routes[id]
		if ro.origin == rt.token {
			routes = append(routes, ro)
		}
	}
	rt.mu.Unlock()
	tbl := routeTable{Origin: rt.token, Routes: make([]routeRecord, 0, len(routes))}
	for _, ro := range routes {
		ro.mu.Lock()
		rec := routeRecord{
			ID:       ro.id,
			Hash:     ro.hash,
			Tenant:   ro.tenant,
			Spec:     json.RawMessage(ro.specJSON),
			Node:     ro.node,
			RemoteID: ro.remoteID,
			Terminal: ro.terminal,
			Requeues: ro.requeues,
			Last:     ro.last,
		}
		if ro.trace.Valid() {
			rec.Trace = ro.trace.Traceparent()
		}
		ro.mu.Unlock()
		tbl.Routes = append(tbl.Routes, rec)
	}
	service.WriteJSON(w, http.StatusOK, tbl)
}

// replicateLoop pulls peer route tables on the probe cadence until the
// router closes.
func (rt *Router) replicateLoop(interval time.Duration) {
	defer close(rt.repDone)
	if interval <= 0 {
		interval = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopRep:
			return
		case <-tick.C:
			for _, peer := range rt.gossipPeers {
				rt.pullRoutes(peer)
			}
		}
	}
}

// pullRoutes fetches one peer's route table and merges it. Failures are
// silent — the peer may be down, and replication is best-effort by
// design (the 307 fallback and client retries cover the gap).
func (rt *Router) pullRoutes(peer string) {
	rep, _ := call{method: http.MethodGet, url: peer + "/v1/fleet/routes",
		timeout: 5 * time.Second, limit: maxBatchBytes}.do(context.Background(), rt.client)
	var tbl routeTable
	if rep.decode(&tbl) {
		rt.mergeRoutes(tbl.Routes)
	}
}

// mergeRoutes folds peer route records into the local table. Records we
// originated are skipped (our copy is authoritative). Unknown IDs are
// adopted as replicas; known replicas advance when the record shows
// progress we have not observed — more requeues, or a terminal status
// we lack. A replica's placement can diverge from the origin's after
// independent requeues; content addressing keeps that safe, both
// placements compute the identical table.
func (rt *Router) mergeRoutes(recs []routeRecord) {
	for _, rec := range recs {
		origin := originOf(rec.ID)
		if origin == rt.token || rec.ID == "" || rec.Node == "" {
			continue
		}
		var trace obs.SpanContext
		if rec.Trace != "" {
			trace, _ = obs.ParseTraceparent(rec.Trace)
		}
		rt.mu.Lock()
		ro, known := rt.routes[rec.ID]
		if !known {
			ro = &route{
				id:       rec.ID,
				hash:     rec.Hash,
				tenant:   rec.Tenant,
				specJSON: []byte(rec.Spec),
				origin:   origin,
				node:     rec.Node,
				remoteID: rec.RemoteID,
				terminal: rec.Terminal,
				requeues: rec.Requeues,
				last:     rec.Last,
				trace:    trace,
			}
			rt.routes[rec.ID] = ro
			rt.order = append(rt.order, rec.ID)
		}
		rt.mu.Unlock()
		if !known {
			rt.metrics.replicas.Inc()
			continue
		}
		ro.mu.Lock()
		if ro.origin != rt.token && (rec.Requeues > ro.requeues || (rec.Terminal && !ro.terminal)) {
			ro.node = rec.Node
			ro.remoteID = rec.RemoteID
			ro.terminal = rec.Terminal
			ro.requeues = rec.Requeues
			ro.last = rec.Last
		}
		if !ro.trace.Valid() && trace.Valid() {
			ro.trace = trace
		}
		ro.mu.Unlock()
	}
}

// resolve looks up a router job ID for the proxy handlers. Unknown IDs
// minted by a known gossip peer answer 307 to that peer — the route
// exists but its replica has not arrived yet (replication lag, or this
// router restarted); the client follows the redirect now and retries
// here after the next replication pull. Everything else is a plain 404.
func (rt *Router) resolve(w http.ResponseWriter, r *http.Request) (*route, bool) {
	id := r.PathValue("id")
	if ro, ok := rt.lookup(id); ok {
		return ro, true
	}
	if tok := originOf(id); tok != "" && tok != rt.token {
		if origin, ok := rt.peerTokens[tok]; ok {
			rt.metrics.redirects.Inc()
			w.Header().Set("Location", origin+r.URL.RequestURI())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTemporaryRedirect)
			return nil, false
		}
	}
	service.WriteError(w, http.StatusNotFound, "unknown job %q", id)
	return nil, false
}
