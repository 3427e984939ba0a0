package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
