package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	snnmap "repro"
)

// tinySpec is a job small enough to map in milliseconds yet with real
// cross-crossbar traffic. Two deterministic techniques keep the suite
// fast and the tables reproducible.
func tinySpec() snnmap.JobSpec {
	return snnmap.JobSpec{
		App:        "gen:modular:n=48,dur=120,seed=5",
		Arch:       "tree",
		Techniques: []string{"greedy", "neutrams"},
	}
}

// slowSpec is a job whose replay takes long enough to observe mid-run
// cancellation and drain behavior.
func slowSpec() snnmap.JobSpec {
	n, dur := 768, 2500
	if testing.Short() {
		n, dur = 384, 1200
	}
	return snnmap.JobSpec{
		App:        fmt.Sprintf("gen:smallworld:n=%d,dur=%d,seed=3", n, dur),
		Arch:       "mesh",
		Techniques: []string{"greedy"},
	}
}

// newTestServer builds a Server that is drained at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, http.Handler) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, s.Handler()
}

// doRequest runs one request through the handler layer — no sockets.
func doRequest(t *testing.T, h http.Handler, method, target string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeStatus(t *testing.T, rec *httptest.ResponseRecorder) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding status from %q: %v", rec.Body.String(), err)
	}
	return st
}

// submit posts a spec and asserts the expected status code.
func submit(t *testing.T, h http.Handler, spec snnmap.JobSpec, wantCode int) JobStatus {
	t.Helper()
	rec := doRequest(t, h, http.MethodPost, "/v1/jobs", spec)
	if rec.Code != wantCode {
		t.Fatalf("submit = %d %s, want %d", rec.Code, rec.Body.String(), wantCode)
	}
	return decodeStatus(t, rec)
}

// waitRunning polls a job until it occupies a worker (skips the test if
// it finished first — the spec was too fast to pin).
func waitRunning(t *testing.T, h http.Handler, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := decodeStatus(t, doRequest(t, h, http.MethodGet, "/v1/jobs/"+id, nil))
		if cur.State == JobRunning {
			return
		}
		if cur.State.Terminal() {
			t.Skipf("job finished (%s) before it could be observed running", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
}

// decodeInto unmarshals a recorder body, failing the test on error.
func decodeInto(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
}

// doTenantRequest submits a spec under an X-Tenant header.
func doTenantRequest(t *testing.T, h http.Handler, tenant string, spec snnmap.JobSpec) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(b))
	req.Header.Set("X-Tenant", tenant)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// cancelJob issues DELETE and tolerates conflicts (already terminal).
func cancelJob(t *testing.T, h http.Handler, id string) {
	t.Helper()
	rec := doRequest(t, h, http.MethodDelete, "/v1/jobs/"+id, nil)
	if rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
		t.Fatalf("cancel %s = %d %s", id, rec.Code, rec.Body.String())
	}
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, h http.Handler, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := doRequest(t, h, http.MethodGet, "/v1/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d %s", rec.Code, rec.Body.String())
		}
		st := decodeStatus(t, rec)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, h http.Handler, id, format string) []byte {
	t.Helper()
	rec := doRequest(t, h, http.MethodGet, "/v1/jobs/"+id+"/result?format="+format, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("result = %d %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// TestServiceEndToEnd is the acceptance test of the daemon's core
// contract:
//
//  1. a job submitted over HTTP yields a Table byte-identical to the
//     same canonical spec run through the cmd/snnmap code path (warm
//     pipeline session + Compare + NewReportTable);
//  2. a repeated identical request is served from the content-addressed
//     result cache — hit counter increments, no new pipeline is
//     constructed, bytes identical;
//  3. a different seed misses the cache and builds a new session.
func TestServiceEndToEnd(t *testing.T) {
	spec := tinySpec()

	// The reference bytes, produced exactly like `cmd/snnmap -app ...
	// -partitioner greedy,neutrams -format csv`: registry-resolved warm
	// pipeline, technique sweep, report table, CSV encoding.
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
	reports, err := pipe.Compare(context.Background(), pts)
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

	s, h := newTestServer(t, Config{Workers: 2})

	// 1 — cold job over HTTP.
	st := submit(t, h, spec, http.StatusAccepted)
	if st.Cached {
		t.Fatal("cold job marked cached")
	}
	st = waitTerminal(t, h, st.ID)
	if st.State != JobDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	got := fetchResult(t, h, st.ID, "csv")
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("service CSV differs from the CLI-path CSV:\n--- service ---\n%s\n--- cli ---\n%s", got, want.Bytes())
	}

	snap := s.Snapshot()
	if snap.CacheHits != 0 || snap.CacheMisses != 1 {
		t.Fatalf("after cold job: cache hits/misses = %d/%d, want 0/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.PoolBuilds != 1 || snap.PoolMisses != 1 {
		t.Fatalf("after cold job: pool builds/misses = %d/%d, want 1/1", snap.PoolBuilds, snap.PoolMisses)
	}

	// 2 — identical spec: served from the result cache, bit-identical,
	// without constructing anything.
	st2 := submit(t, h, spec, http.StatusOK)
	if !st2.Cached || st2.State != JobDone {
		t.Fatalf("repeat job = %+v, want cached done", st2)
	}
	if st2.Hash != st.Hash {
		t.Fatalf("equal specs hashed differently: %s vs %s", st2.Hash, st.Hash)
	}
	if got2 := fetchResult(t, h, st2.ID, "csv"); !bytes.Equal(got2, want.Bytes()) {
		t.Fatal("cached result bytes differ from the original")
	}
	snap2 := s.Snapshot()
	if snap2.CacheHits != snap.CacheHits+1 {
		t.Fatalf("cache hits = %d, want %d", snap2.CacheHits, snap.CacheHits+1)
	}
	if snap2.PoolBuilds != snap.PoolBuilds {
		t.Fatalf("cached request constructed a pipeline (builds %d -> %d)", snap.PoolBuilds, snap2.PoolBuilds)
	}

	// JSON format serves the same table in its JSON wire form.
	var gotJSON bytes.Buffer
	if err := refTable.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if j := fetchResult(t, h, st2.ID, "json"); !bytes.Equal(j, gotJSON.Bytes()) {
		t.Fatal("JSON result differs from Table.WriteJSON")
	}

	// 3 — a different seed is a different canonical spec: cache miss,
	// new session (the app build is seed-dependent), different bytes.
	reseeded := spec
	reseeded.Seed = 9
	st3 := submit(t, h, reseeded, http.StatusAccepted)
	if st3.Cached {
		t.Fatal("different seed served from cache")
	}
	if st3.Hash == st.Hash {
		t.Fatal("different seed produced the same content address")
	}
	st3 = waitTerminal(t, h, st3.ID)
	if st3.State != JobDone {
		t.Fatalf("reseeded job finished %s (%s)", st3.State, st3.Error)
	}
	snap3 := s.Snapshot()
	if snap3.CacheMisses != snap2.CacheMisses+1 {
		t.Fatalf("cache misses = %d, want %d", snap3.CacheMisses, snap2.CacheMisses+1)
	}
	if snap3.PoolBuilds != snap2.PoolBuilds+1 {
		t.Fatalf("pool builds = %d, want %d", snap3.PoolBuilds, snap2.PoolBuilds+1)
	}
}

// TestWarmSessionAcrossTechniques pins the session-pool contract: two
// jobs differing only per-run (techniques) share one warm session.
func TestWarmSessionAcrossTechniques(t *testing.T) {
	s, h := newTestServer(t, Config{Workers: 1})
	a := tinySpec()
	a.Techniques = []string{"greedy"}
	b := tinySpec()
	b.Techniques = []string{"neutrams"}

	st := waitTerminal(t, h, submit(t, h, a, http.StatusAccepted).ID)
	if st.State != JobDone {
		t.Fatalf("first job %s (%s)", st.State, st.Error)
	}
	st = waitTerminal(t, h, submit(t, h, b, http.StatusAccepted).ID)
	if st.State != JobDone {
		t.Fatalf("second job %s (%s)", st.State, st.Error)
	}
	snap := s.Snapshot()
	if snap.PoolBuilds != 1 {
		t.Fatalf("pool builds = %d, want 1 (same session key)", snap.PoolBuilds)
	}
	if snap.PoolHits != 1 || snap.PoolMisses != 1 {
		t.Fatalf("pool hits/misses = %d/%d, want 1/1", snap.PoolHits, snap.PoolMisses)
	}
	if snap.CacheHits != 0 {
		t.Fatalf("different techniques must not share results (cache hits = %d)", snap.CacheHits)
	}
}

// TestCancelRunningJob cancels a slow job mid-run over HTTP and asserts
// it reaches the canceled state promptly — the service-level face of the
// pipeline's bounded cancellation latency.
func TestCancelRunningJob(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})
	st := submit(t, h, slowSpec(), http.StatusAccepted)

	// Wait for the job to start, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := decodeStatus(t, doRequest(t, h, http.MethodGet, "/v1/jobs/"+st.ID, nil))
		if cur.State == JobRunning {
			break
		}
		if cur.State.Terminal() {
			t.Skipf("job finished (%s) before the cancel could land", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	rec := doRequest(t, h, http.MethodDelete, "/v1/jobs/"+st.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel = %d %s", rec.Code, rec.Body.String())
	}
	start := time.Now()
	final := waitTerminal(t, h, st.ID)
	if final.State == JobDone {
		t.Skip("job completed before the cancellation landed")
	}
	if final.State != JobCanceled {
		t.Fatalf("state after cancel = %s (%s), want canceled", final.State, final.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// A canceled job has no result.
	if rec := doRequest(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil); rec.Code != http.StatusConflict {
		t.Fatalf("result of canceled job = %d, want 409", rec.Code)
	}
	// Canceling again conflicts.
	if rec := doRequest(t, h, http.MethodDelete, "/v1/jobs/"+st.ID, nil); rec.Code != http.StatusConflict {
		t.Fatalf("second cancel = %d, want 409", rec.Code)
	}
}

// TestJobTimeout pins the per-job wall-clock limit.
func TestJobTimeout(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	st := waitTerminal(t, h, submit(t, h, slowSpec(), http.StatusAccepted).ID)
	if st.State != JobFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("timed-out job = %s (%q), want failed with deadline error", st.State, st.Error)
	}
}

// TestSubmitRejections covers the 4xx surface of submission.
func TestSubmitRejections(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"malformed", `{`, "decoding job spec"},
		{"unknown field", `{"app":"HW","bogus":1}`, "bogus"},
		{"no app", `{}`, "without an application"},
		{"bad technique", `{"app":"HW","techniques":["nope"]}`, "unknown partitioner"},
		{"bad arch", `{"app":"HW","arch":"nope"}`, "unknown architecture"},
		{"bad aer", `{"app":"HW","aer":"nope"}`, "unknown AER mode"},
		{"bad app", `{"app":"no-such-app"}`, "unknown application"},
		{"bad app tail", `{"app":"synth:layers"}`, "malformed parameter"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: = %d %s, want 400 containing %q", c.name, rec.Code, rec.Body.String(), c.want)
		}
	}
	// A spec that is textually valid but carries a bad parameter *value*
	// still passes normalization (values are checked by the family's
	// builder) and fails the job at session build.
	st := waitTerminal(t, h, submit(t, h, snnmap.JobSpec{App: "synth:layers=x"}, http.StatusAccepted).ID)
	if st.State != JobFailed || !strings.Contains(st.Error, "layers") {
		t.Fatalf("bad-parameter job = %s (%q)", st.State, st.Error)
	}
	// And a failed job must never be cached.
	st2 := submit(t, h, snnmap.JobSpec{App: "synth:layers=x"}, http.StatusAccepted)
	if st2.Cached {
		t.Fatal("failed spec served from cache")
	}
	waitTerminal(t, h, st2.ID)
}

// TestDrain pins graceful shutdown: accepted work finishes, new work is
// rejected, health flips to draining.
func TestDrain(t *testing.T) {
	s, h := newTestServer(t, Config{Workers: 1})
	st := submit(t, h, tinySpec(), http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := decodeStatus(t, doRequest(t, h, http.MethodGet, "/v1/jobs/"+st.ID, nil))
	if final.State != JobDone {
		t.Fatalf("accepted job after drain = %s (%s), want done", final.State, final.Error)
	}
	if rec := doRequest(t, h, http.MethodGet, "/healthz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", rec.Code)
	}
	if rec := doRequest(t, h, http.MethodPost, "/v1/jobs", tinySpec()); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", rec.Code)
	}
	// Draining twice is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// flushRecorder adds http.Flusher to the stock recorder so the SSE
// handler can run without a socket.
type flushRecorder struct{ *httptest.ResponseRecorder }

func (f flushRecorder) Flush() {}

// TestSSEStream pins the events endpoint: a subscriber attaching after
// completion replays the whole history — queued, session, one stage
// event per pipeline stage per technique, done.
func TestSSEStream(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})
	spec := tinySpec()
	spec.Techniques = []string{"greedy"}
	st := waitTerminal(t, h, submit(t, h, spec, http.StatusAccepted).ID)
	if st.State != JobDone {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil)
	rec := flushRecorder{httptest.NewRecorder()}
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		`event: state`, `"state":"queued"`,
		`"state":"running"`,
		`event: session`, `"warm":false`,
		`event: stage`, `"stage":"partition"`, `"stage":"place"`, `"stage":"simulate"`, `"stage":"analyze"`,
		`"state":"done"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("SSE stream missing %q:\n%s", want, body)
		}
	}
	if got := strings.Count(body, "event: stage"); got != 4 {
		t.Fatalf("stage events = %d, want 4:\n%s", got, body)
	}

	// Unknown job: 404, not a stream.
	rec2 := flushRecorder{httptest.NewRecorder()}
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/jobs/nope/events", nil))
	if rec2.Code != http.StatusNotFound {
		t.Fatalf("events of unknown job = %d", rec2.Code)
	}
}

// TestMetricsEndpoint asserts the Prometheus rendering carries every
// metric family with believable values after traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})
	st := waitTerminal(t, h, submit(t, h, tinySpec(), http.StatusAccepted).ID)
	if st.State != JobDone {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}
	submit(t, h, tinySpec(), http.StatusOK) // cache hit

	rec := doRequest(t, h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`snnmapd_jobs_total{state="done"} 2`,
		`snnmapd_jobs_running 0`,
		`snnmapd_jobs_queued 0`,
		`snnmapd_result_cache_hits_total 1`,
		`snnmapd_result_cache_misses_total 1`,
		`snnmapd_result_cache_entries 1`,
		`snnmapd_result_cache_hit_ratio 0.5`,
		`snnmapd_session_pool_entries 1`,
		`snnmapd_session_pool_misses_total 1`,
		`snnmapd_session_pool_hit_ratio 0`,
		`snnmapd_peer_cache_hits_total 0`,
		`snnmapd_peer_cache_misses_total 0`,
		`snnmapd_peer_cache_serves_total 0`,
		`snnmapd_jobs_executed_total 1`,
		`snnmapd_loadshed_total 0`,
		`snnmapd_batches_total 0`,
		`snnmapd_stage_seconds_bucket{stage="partition"`,
		`snnmapd_stage_seconds_count{stage="simulate"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestVersionEndpoint asserts the build-info surface.
func TestVersionEndpoint(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})
	rec := doRequest(t, h, http.MethodGet, "/v1/version", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("version = %d", rec.Code)
	}
	var v struct {
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Version == "" || !strings.HasPrefix(v.Go, "go") {
		t.Fatalf("version body = %s", rec.Body.String())
	}
}
