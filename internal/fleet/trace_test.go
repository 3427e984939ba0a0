package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	snnmap "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

// Fixed client trace identity; every span of a routed job must land on
// this trace ID when the submission carries the header.
const (
	clientTraceID     = "af7651916cd43dd8448eb211c80319c7"
	clientTraceparent = "00-" + clientTraceID + "-b7ad6b7169203331-01"
)

// submitTraced POSTs a job through the router with a traceparent header.
func submitTraced(t *testing.T, base string, spec snnmap.JobSpec) service.JobStatus {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("traced submit = %d", resp.StatusCode)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// fetchFleetTree GETs a job's merged span tree from a router.
func fetchFleetTree(t *testing.T, base, id string) *obs.Tree {
	t.Helper()
	resp, body := getBody(t, base+"/v1/jobs/"+id+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d %s", resp.StatusCode, body)
	}
	var tree obs.Tree
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatalf("decoding tree %s: %v", body, err)
	}
	return &tree
}

func fleetSpanNames(tree *obs.Tree) map[string]int {
	names := map[string]int{}
	for _, n := range tree.Flatten() {
		names[n.Name]++
	}
	return names
}

// TestTraceAcrossRouterHop is the fleet propagation test: a traced
// submission through the router yields ONE span tree on the client's
// trace ID that covers both sides of the proxy hop — the router's proxy
// span and the worker's job, queue-wait and pipeline-stage spans —
// retrievable from the router.
func TestTraceAcrossRouterHop(t *testing.T) {
	workers := startWorkers(t, 2, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	_, base := startRouter(t, workers)

	st := submitTraced(t, base, tinyFleetSpec())
	final := waitDoneVia(t, base, st.ID, 60*time.Second)
	if final.State != service.JobDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}

	tree := fetchFleetTree(t, base, st.ID)
	if tree.TraceID != clientTraceID {
		t.Fatalf("trace ID = %s, want the client's %s", tree.TraceID, clientTraceID)
	}
	names := fleetSpanNames(tree)
	for _, want := range []string{"router.proxy", "job", "queue.wait", "cache.lookup", "run", "session", "technique", "partition", "place", "simulate", "analyze"} {
		if names[want] == 0 {
			t.Errorf("merged trace missing %q span; have %v", want, names)
		}
	}
	// The worker job span is a child of the router proxy span — one
	// connected trace, not two trees sharing an ID.
	var proxyID string
	for _, n := range tree.Flatten() {
		if n.Name == "router.proxy" {
			proxyID = n.SpanID
		}
	}
	jobParented := false
	for _, n := range tree.Flatten() {
		if n.Name == "job" && n.Parent == proxyID {
			jobParented = true
		}
	}
	if !jobParented {
		t.Fatalf("worker job span not parented on router.proxy %q", proxyID)
	}
}

// TestTraceSurvivesRequeue pins trace continuity across worker death:
// the routed worker is hard-killed mid-replay, the router requeues the
// job on a successor, and the finished job's trace still carries the
// ORIGINAL trace ID — with an explicit router.requeue span recording
// the failover — because the requeue resubmission re-propagates the
// route's stored span context.
func TestTraceSurvivesRequeue(t *testing.T) {
	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	rt, base := startRouter(t, workers)

	st := submitTraced(t, base, slowFleetSpec())
	waitRunningVia(t, base, st.ID)
	routedWorker(t, rt, workers).kill()

	final := waitDoneVia(t, base, st.ID, 180*time.Second)
	if final.State != service.JobDone {
		t.Fatalf("job after worker death = %s (%s), want done", final.State, final.Error)
	}

	tree := fetchFleetTree(t, base, st.ID)
	if tree.TraceID != clientTraceID {
		t.Fatalf("post-requeue trace ID = %s, want the original %s", tree.TraceID, clientTraceID)
	}
	names := fleetSpanNames(tree)
	if names["router.requeue"] == 0 {
		t.Fatalf("no router.requeue span recorded; have %v", names)
	}
	// The replacement worker's spans joined the same trace: its job ran
	// the pipeline to done under the client's trace ID.
	if names["job"] == 0 || names["simulate"] == 0 {
		t.Fatalf("replacement worker's spans missing from merged trace: %v", names)
	}
	jobs := 0
	for _, n := range tree.Flatten() {
		if n.Name == "job" && n.Attrs["state"] == string(service.JobDone) {
			jobs++
		}
	}
	if jobs != 1 {
		t.Fatalf("done job spans = %d, want exactly 1 (the victim's never committed)", jobs)
	}
}

// TestTraceBatchScatterSiblings pins the batch topology at the fleet
// level: one router.batch span parents a router.scatter span per owner
// shard, each scattered worker batch hangs its job spans under its
// scatter span, and the whole fan-out shares the client's trace ID.
func TestTraceBatchScatterSiblings(t *testing.T) {
	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	_, base := startRouter(t, workers)

	a := tinyFleetSpec()
	b := tinyFleetSpec()
	b.Techniques = []string{"neutrams"}
	body, err := json.Marshal(map[string]any{"jobs": []snnmap.JobSpec{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/batches", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	var br struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Jobs) != 2 {
		t.Fatalf("batch statuses = %d, want 2", len(br.Jobs))
	}
	for _, st := range br.Jobs {
		if final := waitDoneVia(t, base, st.ID, 60*time.Second); final.State != service.JobDone {
			t.Fatalf("batch job %s finished %s (%s)", st.ID, final.State, final.Error)
		}
	}

	// Each job's trace view shares the client's trace ID and shows the
	// scatter fan-out: every router.scatter span is a sibling under the
	// one router.batch span.
	for _, st := range br.Jobs {
		tree := fetchFleetTree(t, base, st.ID)
		if tree.TraceID != clientTraceID {
			t.Fatalf("batch job %s trace ID = %s, want %s", st.ID, tree.TraceID, clientTraceID)
		}
		var batchID string
		batches, scatters := 0, 0
		for _, n := range tree.Flatten() {
			if n.Name == "router.batch" {
				batches++
				batchID = n.SpanID
			}
		}
		for _, n := range tree.Flatten() {
			if n.Name == "router.scatter" {
				scatters++
				if n.Parent != batchID {
					t.Fatalf("scatter span %s parented on %q, want the batch span %q", n.SpanID, n.Parent, batchID)
				}
			}
		}
		if batches != 1 || scatters < 1 {
			t.Fatalf("batch/scatter spans = %d/%d, want 1/>=1", batches, scatters)
		}
		if names := fleetSpanNames(tree); names["job"] < 1 || names["batch"] < 1 {
			t.Fatalf("worker-side batch spans missing: %v", names)
		}
	}
}
