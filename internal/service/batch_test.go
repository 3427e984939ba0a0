package service

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	snnmap "repro"
)

// TestBatchEndpoint pins the batch contract: statuses come back in
// input order, duplicate canonical specs collapse onto one job, jobs
// sharing a session key ride one warm session (one pool build for the
// whole batch), and every job completes with its own result.
func TestBatchEndpoint(t *testing.T) {
	s, h := newTestServer(t, Config{Workers: 1})
	a := tinySpec()
	a.Techniques = []string{"greedy"}
	b := tinySpec()
	b.Techniques = []string{"neutrams"}                      // same session key as a, different result
	req := map[string]any{"jobs": []snnmap.JobSpec{a, b, a}} // [2] duplicates [0]

	rec := doRequest(t, h, http.MethodPost, "/v1/batches", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Jobs []JobStatus `json:"jobs"`
	}
	decodeInto(t, rec, &resp)
	if len(resp.Jobs) != 3 {
		t.Fatalf("statuses = %d, want 3", len(resp.Jobs))
	}
	if resp.Jobs[0].ID != resp.Jobs[2].ID {
		t.Fatalf("duplicate specs got distinct jobs: %s vs %s", resp.Jobs[0].ID, resp.Jobs[2].ID)
	}
	if resp.Jobs[0].ID == resp.Jobs[1].ID {
		t.Fatal("distinct specs collapsed onto one job")
	}

	for _, st := range resp.Jobs[:2] {
		if got := waitTerminal(t, h, st.ID); got.State != JobDone {
			t.Fatalf("batch job %s finished %s (%s)", st.ID, got.State, got.Error)
		}
	}
	if ra, rb := fetchResult(t, h, resp.Jobs[0].ID, "csv"), fetchResult(t, h, resp.Jobs[1].ID, "csv"); bytes.Equal(ra, rb) {
		t.Fatal("different techniques produced identical tables (results conflated)")
	}

	snap := s.Snapshot()
	if snap.PoolBuilds != 1 {
		t.Fatalf("pool builds = %d, want 1 (one warm session per batch group)", snap.PoolBuilds)
	}
	if snap.Batches != 1 {
		t.Fatalf("batches counter = %d, want 1", snap.Batches)
	}
	if snap.Executed != 2 {
		t.Fatalf("executed counter = %d, want 2 (the deduped pair)", snap.Executed)
	}

	// A repeat batch is answered wholly from the result cache: born-done
	// statuses, no new execution.
	rec = doRequest(t, h, http.MethodPost, "/v1/batches", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat batch = %d %s", rec.Code, rec.Body.String())
	}
	decodeInto(t, rec, &resp)
	for i, st := range resp.Jobs {
		if st.State != JobDone || !st.Cached {
			t.Fatalf("repeat batch job %d = %s cached=%v, want born done", i, st.State, st.Cached)
		}
	}
	if snap2 := s.Snapshot(); snap2.Executed != snap.Executed {
		t.Fatalf("repeat batch executed jobs (%d -> %d)", snap.Executed, snap2.Executed)
	}
}

// TestBatchTechSeeds pins the tech_seeds execution path end to end: a
// seed-sweep job's table is byte-identical to driving
// Pipeline.RunSeeds directly with the same canonical inputs.
func TestBatchTechSeeds(t *testing.T) {
	spec := snnmap.JobSpec{
		App:        "gen:modular:n=48,dur=120,seed=5",
		Arch:       "tree",
		Techniques: []string{"random"},
		TechSeeds:  []int64{11, 7, 3},
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := norm.Partitioners()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := snnmap.NewPipelineByName(
		norm.App, snnmap.AppConfig{Seed: norm.Seed, DurationMs: norm.DurationMs},
		norm.Arch, snnmap.ArchSpec{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := pipe.RunSeeds(context.Background(), pts[0], norm.TechSeeds)
	if err != nil {
		t.Fatal(err)
	}
	refTable, err := snnmap.NewReportTable(reports...)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := refTable.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	_, h := newTestServer(t, Config{Workers: 1})
	st := waitTerminal(t, h, submit(t, h, spec, http.StatusAccepted).ID)
	if st.State != JobDone {
		t.Fatalf("sweep job %s (%s)", st.State, st.Error)
	}
	if got := fetchResult(t, h, st.ID, "csv"); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("service sweep CSV differs from RunSeeds:\n--- service ---\n%s\n--- direct ---\n%s", got, want.Bytes())
	}

	// The SSE stream carries the sweep marker instead of per-stage spam.
	rec := doRequest(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil)
	if !strings.Contains(rec.Body.String(), `event: sweep`) || !strings.Contains(rec.Body.String(), `"seeds":3`) {
		t.Fatalf("sweep job events missing sweep marker:\n%s", rec.Body.String())
	}

	// tech_seeds validation surfaces as a 400 at submission.
	bad := spec
	bad.Techniques = []string{"greedy"}
	rec = doRequest(t, h, http.MethodPost, "/v1/jobs", bad)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "deterministic") {
		t.Fatalf("deterministic sweep submit = %d %s", rec.Code, rec.Body.String())
	}
}

// TestBatchShedAtomic pins all-or-nothing batch admission: a batch that
// does not fit whole is shed whole — 429, Retry-After, and no residue in
// the store or queue.
func TestBatchShedAtomic(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	running := submit(t, h, slowSpec(), http.StatusAccepted)
	waitRunning(t, h, running.ID)

	a := tinySpec()
	a.Seed = 201
	b := tinySpec()
	b.Seed = 202 // different session key than a (seed differs) → two groups
	rec := doRequest(t, h, http.MethodPost, "/v1/batches", map[string]any{"jobs": []snnmap.JobSpec{a, b}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("oversized batch = %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed batch missing Retry-After")
	}
	if !strings.Contains(rec.Body.String(), `"code": "overloaded"`) {
		t.Fatalf("shed batch body:\n%s", rec.Body.String())
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	decodeInto(t, doRequest(t, h, http.MethodGet, "/v1/jobs", nil), &list)
	if len(list.Jobs) != 1 {
		t.Fatalf("jobs after shed batch = %d, want 1 (no partially accepted batches)", len(list.Jobs))
	}

	// Malformed batches are rejected with the offending index.
	rec = doRequest(t, h, http.MethodPost, "/v1/batches", map[string]any{"jobs": []map[string]any{{"app": "HW"}, {"app": ""}}})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "jobs[1]") {
		t.Fatalf("bad batch = %d %s", rec.Code, rec.Body.String())
	}
	rec = doRequest(t, h, http.MethodPost, "/v1/batches", map[string]any{"jobs": []snnmap.JobSpec{}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d", rec.Code)
	}

	cancelJob(t, h, running.ID)
}

// TestPeerCacheTier pins the tiered result cache: a worker whose local
// tier misses consults FetchPeer, promotes the peer's table into its
// local tier, and answers born-done — without building a session. The
// peer side serves its tier via GET /v1/cache/{hash} and counts serves.
func TestPeerCacheTier(t *testing.T) {
	owner, ownerH := newTestServer(t, Config{Workers: 1})
	spec := tinySpec()
	st := waitTerminal(t, ownerH, submit(t, ownerH, spec, http.StatusAccepted).ID)
	if st.State != JobDone {
		t.Fatalf("owner job %s (%s)", st.State, st.Error)
	}

	// The peer fetch hook speaks the real wire protocol against the
	// owner's handler.
	fetch := func(ctx context.Context, hash string) (*snnmap.Table, bool) {
		rec := doRequest(t, ownerH, http.MethodGet, "/v1/cache/"+hash, nil)
		if rec.Code != http.StatusOK {
			return nil, false
		}
		table, err := snnmap.ReadTableJSON(rec.Body)
		if err != nil {
			return nil, false
		}
		return table, true
	}
	entry, entryH := newTestServer(t, Config{Workers: 1, FetchPeer: fetch})

	st2 := submit(t, entryH, spec, http.StatusOK)
	if st2.State != JobDone || !st2.Cached {
		t.Fatalf("peer-answered job = %s cached=%v, want born done", st2.State, st2.Cached)
	}
	if !bytes.Equal(fetchResult(t, entryH, st2.ID, "csv"), fetchResult(t, ownerH, st.ID, "csv")) {
		t.Fatal("peer-fetched table differs from the owner's")
	}

	esnap := entry.Snapshot()
	if esnap.PeerHits != 1 || esnap.PeerMisses != 0 {
		t.Fatalf("entry peer hits/misses = %d/%d, want 1/0", esnap.PeerHits, esnap.PeerMisses)
	}
	if esnap.PoolBuilds != 0 || esnap.Executed != 0 {
		t.Fatalf("peer-answered job built a session or executed (builds %d, executed %d)", esnap.PoolBuilds, esnap.Executed)
	}
	if osnap := owner.Snapshot(); osnap.PeerServes != 1 {
		t.Fatalf("owner peer serves = %d, want 1", osnap.PeerServes)
	}

	// The hit was promoted into the entry node's local tier: a repeat is
	// a local hit, no second peer fetch.
	submit(t, entryH, spec, http.StatusOK)
	esnap2 := entry.Snapshot()
	if esnap2.PeerHits != 1 {
		t.Fatalf("repeat went back to the peer (peer hits %d)", esnap2.PeerHits)
	}
	if esnap2.CacheHits != esnap.CacheHits+1 {
		t.Fatalf("repeat not served from the local tier (cache hits %d -> %d)", esnap.CacheHits, esnap2.CacheHits)
	}

	// An uncached address 404s on the peer-serve endpoint.
	if rec := doRequest(t, ownerH, http.MethodGet, "/v1/cache/deadbeef", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown cache fetch = %d", rec.Code)
	}
}
