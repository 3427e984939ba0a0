package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	snnmap "repro"
)

// submitKeyed posts a spec under an X-Idempotency-Key header.
func submitKeyed(t *testing.T, h http.Handler, key string, spec any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(b))
	req.Header.Set(IdempotencyKeyHeader, key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestIdempotentResubmit pins the retry-safety contract the fleet
// router's retry policy rests on: a keyed resubmission — the
// "response lost after the worker accepted" case — answers with the
// already-accepted job instead of creating a twin.
func TestIdempotentResubmit(t *testing.T) {
	s, h := newTestServer(t, Config{Workers: 1})

	first := submitKeyed(t, h, "unit@node-a", slowSpec())
	if first.Code != http.StatusAccepted {
		t.Fatalf("first keyed submit = %d %s", first.Code, first.Body.String())
	}
	st := decodeStatus(t, first)

	// The retry (same key) collapses onto the first job: same ID, 200,
	// no second queue entry.
	retry := submitKeyed(t, h, "unit@node-a", slowSpec())
	if retry.Code != http.StatusOK {
		t.Fatalf("keyed resubmit = %d %s, want 200", retry.Code, retry.Body.String())
	}
	if got := decodeStatus(t, retry); got.ID != st.ID {
		t.Fatalf("keyed resubmit created job %s, want replay of %s", got.ID, st.ID)
	}
	if snap := s.Snapshot(); snap.IdemReplays != 1 {
		t.Fatalf("idempotent replays = %d, want 1", snap.IdemReplays)
	}

	// A different key is a different intent: it must not collapse.
	other := submitKeyed(t, h, "unit@node-b", tinySpec())
	if other.Code != http.StatusAccepted && other.Code != http.StatusOK {
		t.Fatalf("fresh-key submit = %d %s", other.Code, other.Body.String())
	}
	if got := decodeStatus(t, other); got.ID == st.ID {
		t.Fatal("distinct idempotency keys collapsed onto one job")
	}

	// The replay counter rides /metrics.
	rec := doRequest(t, h, http.MethodGet, "/metrics", nil)
	if !strings.Contains(rec.Body.String(), "snnmapd_idempotent_replays_total 1") {
		t.Fatalf("metrics missing replay counter:\n%s", rec.Body.String())
	}

	cancelJob(t, h, st.ID)
}

// TestIdempotentBatchResubmit pins the same contract for POST
// /v1/batches: a keyed resubmission answers with the jobs the first
// attempt created, index for index — a duplicate spec repeats its job at
// its own index — and creates none.
func TestIdempotentBatchResubmit(t *testing.T) {
	s, h := newTestServer(t, Config{Workers: 1})
	other := tinySpec()
	other.Seed = 2
	body, err := json.Marshal(BatchRequest{Jobs: []snnmap.JobSpec{slowSpec(), other, slowSpec()}})
	if err != nil {
		t.Fatal(err)
	}
	post := func() BatchResponse {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/batches", bytes.NewReader(body))
		req.Header.Set(IdempotencyKeyHeader, "batch@node-a")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("keyed batch = %d %s", rec.Code, rec.Body.String())
		}
		var br BatchResponse
		decodeInto(t, rec, &br)
		return br
	}

	first, retry := post(), post()
	if len(retry.Jobs) != 3 || retry.Jobs[0].ID != retry.Jobs[2].ID {
		t.Fatalf("replayed batch statuses = %+v, want the duplicate at index 2", retry.Jobs)
	}
	for i := range first.Jobs {
		if retry.Jobs[i].ID != first.Jobs[i].ID {
			t.Fatalf("replay index %d = %s, want %s", i, retry.Jobs[i].ID, first.Jobs[i].ID)
		}
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	decodeInto(t, doRequest(t, h, http.MethodGet, "/v1/jobs", nil), &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("store holds %d jobs after a keyed batch resubmit, want 2", len(list.Jobs))
	}
	if snap := s.Snapshot(); snap.IdemReplays != 1 {
		t.Fatalf("idempotent replays = %d, want 1", snap.IdemReplays)
	}

	// The same specs with the duplicate at another index are other
	// content: admitted afresh, not replayed.
	body, err = json.Marshal(BatchRequest{Jobs: []snnmap.JobSpec{slowSpec(), other, other}})
	if err != nil {
		t.Fatal(err)
	}
	post()
	if snap := s.Snapshot(); snap.IdemReplays != 1 {
		t.Fatalf("idempotent replays = %d after a reordered batch, want 1", snap.IdemReplays)
	}
	cancelJob(t, h, first.Jobs[0].ID)
}

// TestIdempotencyKeyBoundToContent pins that a key only replays the
// content it was recorded for: a router restarted without an origin
// token reissues fleet-000001 and so its keys, and a client may reuse a
// key for another spec. Either way the submission is admitted as new,
// never answered with the other spec's job.
func TestIdempotencyKeyBoundToContent(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})
	first := submitKeyed(t, h, "fleet-000001@node-a", slowSpec())
	if first.Code != http.StatusAccepted {
		t.Fatalf("first keyed submit = %d %s", first.Code, first.Body.String())
	}
	st := decodeStatus(t, first)
	other := submitKeyed(t, h, "fleet-000001@node-a", tinySpec())
	if other.Code != http.StatusAccepted && other.Code != http.StatusOK {
		t.Fatalf("same key, other spec = %d %s", other.Code, other.Body.String())
	}
	otherSt := decodeStatus(t, other)
	if otherSt.ID == st.ID || otherSt.Hash == st.Hash {
		t.Fatalf("same key, other spec answered with job %s (hash %s), the first spec's", otherSt.ID, otherSt.Hash)
	}
	// The key now belongs to the submission it last admitted: a
	// lost-response retry of that one replays it.
	retry := submitKeyed(t, h, "fleet-000001@node-a", tinySpec())
	if retry.Code != http.StatusOK {
		t.Fatalf("retry of the re-keyed spec = %d %s, want 200", retry.Code, retry.Body.String())
	}
	if got := decodeStatus(t, retry); got.ID != otherSt.ID {
		t.Fatalf("retry of the re-keyed spec created job %s, want replay of %s", got.ID, otherSt.ID)
	}
	cancelJob(t, h, st.ID)
}

// TestCacheIndex pins the warm-planning endpoint: GET /v1/cache lists
// the locally cached content addresses, bounded by ?limit.
func TestCacheIndex(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})

	st := submit(t, h, tinySpec(), http.StatusAccepted)
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := decodeStatus(t, doRequest(t, h, http.MethodGet, "/v1/jobs/"+st.ID, nil))
		if cur.State == JobDone {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job = %s, want done", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	rec := doRequest(t, h, http.MethodGet, "/v1/cache", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cache index = %d %s", rec.Code, rec.Body.String())
	}
	var idx struct {
		Hashes []string `json:"hashes"`
	}
	decodeInto(t, rec, &idx)
	if len(idx.Hashes) != 1 || idx.Hashes[0] != st.Hash {
		t.Fatalf("cache index = %v, want exactly [%s]", idx.Hashes, st.Hash)
	}

	// The limit parameter bounds the listing; garbage is a 400.
	if rec := doRequest(t, h, http.MethodGet, "/v1/cache?limit=1", nil); rec.Code != http.StatusOK {
		t.Fatalf("limited index = %d", rec.Code)
	}
	if rec := doRequest(t, h, http.MethodGet, "/v1/cache?limit=bogus", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", rec.Code)
	}
}
