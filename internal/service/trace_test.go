package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	snnmap "repro"
	"repro/internal/obs"
)

// clientTraceparent is a fixed W3C traceparent a test client sends; the
// embedded trace ID must come back on every span the worker records.
const (
	clientTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	clientTraceparent = "00-" + clientTraceID + "-00f067aa0ba902b7-01"
)

// fetchTree GETs a job's span tree and decodes it.
func fetchTree(t *testing.T, h http.Handler, id string) *obs.Tree {
	t.Helper()
	rec := doRequest(t, h, http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace fetch = %d %s", rec.Code, rec.Body.String())
	}
	var tree obs.Tree
	decodeInto(t, rec, &tree)
	return &tree
}

// spanNames flattens a tree into a name→count map.
func spanNames(tree *obs.Tree) map[string]int {
	names := map[string]int{}
	for _, n := range tree.Flatten() {
		names[n.Name]++
	}
	return names
}

// findSpans returns every node in the tree with the given name.
func findSpans(tree *obs.Tree, name string) []*obs.SpanNode {
	var out []*obs.SpanNode
	for _, n := range tree.Flatten() {
		if n.Name == name {
			out = append(out, n)
		}
	}
	return out
}

// TestJobTracePropagatesTraceparent is the worker-side propagation
// test: a submission carrying a W3C traceparent header yields a span
// tree on the remote trace ID, covering admission queue wait, session
// and technique setup, and every pipeline stage.
func TestJobTracePropagatesTraceparent(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})

	b, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(b))
	req.Header.Set("traceparent", clientTraceparent)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d %s", rec.Code, rec.Body.String())
	}
	st := decodeStatus(t, rec)
	if got := waitTerminal(t, h, st.ID); got.State != JobDone {
		t.Fatalf("job finished %s (%s)", got.State, got.Error)
	}

	tree := fetchTree(t, h, st.ID)
	if tree.TraceID != clientTraceID {
		t.Fatalf("trace ID = %s, want the client's %s (traceparent not honored)", tree.TraceID, clientTraceID)
	}
	names := spanNames(tree)
	for _, want := range []string{"job", "queue.wait", "run", "session", "technique", "partition", "place", "simulate", "analyze"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span; have %v", want, names)
		}
	}
	// tinySpec runs two techniques; each records its own stage spans.
	if names["technique"] != 2 || names["simulate"] != 2 {
		t.Errorf("technique/simulate spans = %d/%d, want 2/2: %v", names["technique"], names["simulate"], names)
	}
	// The job root carries the terminal state; stage durations are
	// non-negative and stamped.
	roots := findSpans(tree, "job")
	if len(roots) != 1 {
		t.Fatalf("job roots = %d, want 1", len(roots))
	}
	if roots[0].Attrs["state"] != string(JobDone) {
		t.Errorf("job root state attr = %q, want %q", roots[0].Attrs["state"], JobDone)
	}
}

// TestJobTraceFreshRootWithoutHeader pins the fallback: no traceparent
// means the worker mints its own trace, and the tree is still served.
func TestJobTraceFreshRootWithoutHeader(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})
	st := submit(t, h, tinySpec(), http.StatusAccepted)
	if got := waitTerminal(t, h, st.ID); got.State != JobDone {
		t.Fatalf("job finished %s (%s)", got.State, got.Error)
	}
	tree := fetchTree(t, h, st.ID)
	if len(tree.TraceID) != 32 || tree.TraceID == clientTraceID {
		t.Fatalf("expected a fresh 32-hex trace ID, got %q", tree.TraceID)
	}
	if names := spanNames(tree); names["job"] != 1 || names["simulate"] == 0 {
		t.Fatalf("unexpected span set: %v", names)
	}
}

// TestBatchTraceSiblings pins the batch span topology: every job of one
// batch hangs off the shared batch span as a sibling, and the batch
// span itself is parented on the submitter's traceparent — so a
// router-scattered batch renders as one trace.
func TestBatchTraceSiblings(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1})
	a := tinySpec()
	a.Techniques = []string{"greedy"}
	b := tinySpec()
	b.Techniques = []string{"neutrams"}

	body, err := json.Marshal(map[string]any{"jobs": []snnmap.JobSpec{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/batches", bytes.NewReader(body))
	req.Header.Set("traceparent", clientTraceparent)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Jobs []JobStatus `json:"jobs"`
	}
	decodeInto(t, rec, &resp)
	for _, st := range resp.Jobs {
		if got := waitTerminal(t, h, st.ID); got.State != JobDone {
			t.Fatalf("batch job %s finished %s (%s)", st.ID, got.State, got.Error)
		}
	}

	// Either job's trace endpoint serves the whole trace — both jobs
	// share the client's trace ID.
	tree := fetchTree(t, h, resp.Jobs[0].ID)
	if tree.TraceID != clientTraceID {
		t.Fatalf("batch trace ID = %s, want %s", tree.TraceID, clientTraceID)
	}
	batches := findSpans(tree, "batch")
	if len(batches) != 1 {
		t.Fatalf("batch spans = %d, want 1", len(batches))
	}
	jobs := findSpans(tree, "job")
	if len(jobs) != 2 {
		t.Fatalf("job spans = %d, want 2 siblings", len(jobs))
	}
	for _, j := range jobs {
		if j.Parent != batches[0].SpanID {
			t.Fatalf("job span %s parented on %q, want the batch span %q", j.SpanID, j.Parent, batches[0].SpanID)
		}
	}
}

// TestTraceDisabled pins the opt-out: with TracingDisabled the endpoint
// answers 404 and job execution is unaffected.
func TestTraceDisabled(t *testing.T) {
	_, h := newTestServer(t, Config{Workers: 1, TracingDisabled: true})
	st := submit(t, h, tinySpec(), http.StatusAccepted)
	if got := waitTerminal(t, h, st.ID); got.State != JobDone {
		t.Fatalf("job finished %s (%s)", got.State, got.Error)
	}
	if rec := doRequest(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/trace", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("trace with tracing disabled = %d, want 404", rec.Code)
	}
}
