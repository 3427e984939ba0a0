package service

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// group builds a workGroup of n placeholder jobs for queue unit tests.
func group(tenant string, n int) *workGroup {
	g := &workGroup{tenant: tenant}
	for i := 0; i < n; i++ {
		g.jobs = append(g.jobs, &job{})
	}
	return g
}

// TestFairQueueRoundRobin pins the fairness contract: a tenant flooding
// the queue delays only its own backlog — drain order round-robins
// across tenants, so another tenant's single job is served after at most
// one group per competing tenant.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue(16, 16)
	a1, a2, a3 := group("a", 1), group("a", 1), group("a", 1)
	b1 := group("b", 1)
	if err := q.push(a1); err != nil {
		t.Fatal(err)
	}
	if err := q.push(a2); err != nil {
		t.Fatal(err)
	}
	if err := q.push(a3); err != nil {
		t.Fatal(err)
	}
	if err := q.push(b1); err != nil {
		t.Fatal(err)
	}
	want := []*workGroup{a1, b1, a2, a3}
	for i, w := range want {
		g, ok := q.pop()
		if !ok || g != w {
			t.Fatalf("pop %d = %p (tenant %q), want %p (tenant %q)", i, g, g.tenant, w, w.tenant)
		}
	}
}

// TestFairQueueBounds pins both shed bounds and batch atomicity.
func TestFairQueueBounds(t *testing.T) {
	q := newFairQueue(4, 2)

	// Per-tenant bound: a third job for one tenant sheds even though the
	// total bound has room.
	if err := q.push(group("a", 2)); err != nil {
		t.Fatal(err)
	}
	err := q.push(group("a", 1))
	var shed *shedError
	if se, ok := err.(*shedError); !ok || !se.tenant {
		t.Fatalf("tenant overflow error = %v", err)
	} else {
		shed = se
	}
	if !strings.Contains(shed.Error(), "tenant") {
		t.Fatalf("tenant shed message %q", shed.Error())
	}

	// Total bound: another tenant still fits until the total cap.
	if err := q.push(group("b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(group("c", 1)); err == nil {
		t.Fatal("total overflow admitted")
	} else if se, ok := err.(*shedError); !ok || se.tenant {
		t.Fatalf("total overflow error = %v", err)
	}

	// All-or-nothing: a multi-group push that would fit partially sheds
	// entirely and leaves the queue untouched.
	q2 := newFairQueue(3, 3)
	if err := q2.push(group("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := q2.push(group("b", 1), group("c", 1)); err == nil {
		t.Fatal("partial batch admitted")
	}
	if got := q2.backlog(); got != 2 {
		t.Fatalf("backlog after shed batch = %d, want 2 (batch must not leak)", got)
	}
}

// TestFairQueueCloseDrains pins the drain contract: close stops
// admission immediately but parked consumers drain the backlog before
// observing closure.
func TestFairQueueCloseDrains(t *testing.T) {
	q := newFairQueue(8, 8)
	g := group("a", 1)
	if err := q.push(g); err != nil {
		t.Fatal(err)
	}
	q.close()
	q.close() // idempotent
	if err := q.push(group("a", 1)); err == nil {
		t.Fatal("push after close admitted")
	}
	if got, ok := q.pop(); !ok || got != g {
		t.Fatal("queued group lost by close")
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := q.pop()
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop on a drained closed queue returned a group")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop did not observe closure")
	}
}

// TestLoadShedResponse pins the backpressure wire contract: a submission
// past the queue bound is answered 429 with a Retry-After header and a
// machine-readable body (code, retry_after_ms), and the shed counter
// moves. The single worker is pinned by a slow job so the queue state is
// deterministic.
func TestLoadShedResponse(t *testing.T) {
	s, h := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	running := submit(t, h, slowSpec(), http.StatusAccepted)
	waitRunning(t, h, running.ID)

	queued := tinySpec()
	queued.Seed = 101
	submit(t, h, queued, http.StatusAccepted)

	over := tinySpec()
	over.Seed = 102
	rec := doRequest(t, h, http.MethodPost, "/v1/jobs", over)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	body := rec.Body.String()
	for _, want := range []string{`"code": "overloaded"`, `"retry_after_ms": 1000`, "queue full"} {
		if !strings.Contains(body, want) {
			t.Fatalf("shed body missing %q:\n%s", want, body)
		}
	}
	if snap := s.Snapshot(); snap.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", snap.Shed)
	}
	// The shed job left no residue in the store.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	decodeInto(t, doRequest(t, h, http.MethodGet, "/v1/jobs", nil), &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("jobs after shed = %d, want 2", len(list.Jobs))
	}

	// Per-tenant fairness at the HTTP layer: tenant lanes are keyed by
	// the X-Tenant header, and a tenant at its bound sheds while another
	// tenant still fits.
	_, h2 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, TenantDepth: 1})
	running2 := submit(t, h2, slowSpec(), http.StatusAccepted)
	waitRunning(t, h2, running2.ID)
	first := tinySpec()
	first.Seed = 103
	rec = doTenantRequest(t, h2, "alpha", first)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("tenant alpha first = %d %s", rec.Code, rec.Body.String())
	}
	second := tinySpec()
	second.Seed = 104
	rec = doTenantRequest(t, h2, "alpha", second)
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), "tenant") {
		t.Fatalf("tenant alpha overflow = %d %s", rec.Code, rec.Body.String())
	}
	rec = doTenantRequest(t, h2, "beta", second)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("tenant beta = %d %s (one tenant's backlog must not shed another's)", rec.Code, rec.Body.String())
	}

	cancelJob(t, h, running.ID)
	cancelJob(t, h2, running2.ID)
}
