package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	snnmap "repro"
	"repro/internal/service"
)

// referenceCSV computes the expected result table for a spec in-process
// — the single-node ground truth that a failover-recomputed result must
// match byte for byte.
func referenceCSV(t *testing.T, spec snnmap.JobSpec) []byte {
	t.Helper()
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
	noop := snnmap.ObserverFunc(func(snnmap.StageEvent) {})
	reports := make([]*snnmap.Report, 0, len(pts))
	for _, pt := range pts {
		rep, err := pipe.RunObserved(context.Background(), pt, noop)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	table, err := snnmap.NewReportTable(reports...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// routedWorker returns the worker the router placed the (single) job on.
func routedWorker(t *testing.T, rt *Router, workers []*testWorker) *testWorker {
	t.Helper()
	for _, w := range workers {
		if rt.metrics.routed.Value(w.url) > 0 {
			return w
		}
	}
	t.Fatal("no worker has a routed job")
	return nil
}

// TestChaosKillWorkerMidJob is the failover acceptance test: a worker
// is hard-killed mid-replay, the router detects the death, requeues the
// in-flight job on a ring successor, and the client — who never saw a
// worker — receives a result byte-identical to single-node ground
// truth. The executed counters prove idempotent re-execution: exactly
// one worker completed the job (the victim's aborted run counts zero),
// so failover never double-executes.
func TestChaosKillWorkerMidJob(t *testing.T) {
	spec := slowFleetSpec()
	want := referenceCSV(t, spec)

	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, false)
	rt, base := startRouter(t, workers)

	st := submitVia(t, base, spec, http.StatusAccepted)
	waitRunningVia(t, base, st.ID)
	victim := routedWorker(t, rt, workers)
	victim.kill()

	final := waitDoneVia(t, base, st.ID, 180*time.Second)
	if final.State != service.JobDone {
		t.Fatalf("job after worker death = %s (%s), want done", final.State, final.Error)
	}
	if got := resultVia(t, base, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("failover result differs from single-node ground truth (%d vs %d bytes)", len(got), len(want))
	}

	// The fleet noticed: the victim is marked dead and the requeue
	// counter moved.
	_, view := getBody(t, base+"/v1/fleet")
	var fv FleetView
	if err := json.Unmarshal(view, &fv); err != nil {
		t.Fatal(err)
	}
	if fv.Requeues < 1 {
		t.Fatalf("fleet requeues = %d, want >= 1", fv.Requeues)
	}
	deadSeen := false
	for _, nv := range fv.Nodes {
		if nv.Addr == victim.url && nv.State == nodeDead {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Fatalf("victim %s not marked dead in fleet view: %+v", victim.url, fv.Nodes)
	}

	// Idempotency: the job completed exactly once across the fleet. The
	// victim's aborted run never reached completion, so its executed
	// counter stays zero and the sum over all members is one.
	var executed int64
	for _, w := range workers {
		executed += w.svc.Snapshot().Executed
	}
	if executed != 1 {
		t.Fatalf("fleet executed the job %d times, want exactly 1", executed)
	}

	// The recomputed table is cached at the new owner: a repeat of the
	// same spec through the router is served born-done.
	st2 := submitVia(t, base, spec, http.StatusOK)
	if st2.State != service.JobDone || !st2.Cached {
		t.Fatalf("post-failover repeat = %s cached=%v, want born done", st2.State, st2.Cached)
	}
	if executed2 := workers[0].svc.Snapshot().Executed + workers[1].svc.Snapshot().Executed + workers[2].svc.Snapshot().Executed; executed2 != 1 {
		t.Fatalf("repeat after failover re-executed (total %d)", executed2)
	}
}

// TestChaosSSESurvivesRequeue kills the worker while a client is
// streaming the job's events through the router: the stream stays open,
// carries an explicit requeued marker, reattaches to the new worker and
// ends with the terminal state from the re-execution.
func TestChaosSSESurvivesRequeue(t *testing.T) {
	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, false)
	rt, base := startRouter(t, workers)

	st := submitVia(t, base, slowFleetSpec(), http.StatusAccepted)
	waitRunningVia(t, base, st.ID)

	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	victim := routedWorker(t, rt, workers)
	// Give the relay a moment to attach to the victim's stream before
	// severing it, so the cut happens on a live proxied stream.
	time.Sleep(100 * time.Millisecond)
	victim.kill()

	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		b := make([]byte, 512)
		for {
			n, err := resp.Body.Read(b)
			buf.Write(b[:n])
			if err != nil {
				done <- buf.String()
				return
			}
		}
	}()
	var stream string
	select {
	case stream = <-done:
	case <-time.After(180 * time.Second):
		t.Fatal("SSE stream never completed after worker death")
	}
	for _, want := range []string{"event: requeued", victim.url, `"state":"done"`} {
		if !strings.Contains(stream, want) {
			t.Fatalf("post-requeue stream missing %q:\n%s", want, stream)
		}
	}
}
