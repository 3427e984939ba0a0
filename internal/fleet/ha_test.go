package fleet

import (
	"bytes"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// testHARouter is one router of a replicating pair on a real socket —
// real sockets because the HA tests kill routers the way a crash would,
// and because each router must know its own advertised URL (Self) to
// mint origin-tokened IDs.
type testHARouter struct {
	rt  *Router
	srv *http.Server
	url string

	killOnce sync.Once
}

// kill hard-stops the router: listener severed, probe and replication
// loops stopped. Idempotent so tests can kill explicitly and still let
// the cleanup run.
func (r *testHARouter) kill() {
	r.killOnce.Do(func() {
		_ = r.srv.Close()
		r.rt.Close()
	})
}

// startHARouters boots n routers over the workers, each gossiping with
// all the others, with a fast probe (and therefore replication) cadence.
// client, when non-nil, carries every router's proxy, requeue, probe and
// replication requests.
func startHARouters(t *testing.T, workers []*testWorker, n int, probe time.Duration, client *http.Client) []*testHARouter {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	out := make([]*testHARouter, n)
	for i := range lns {
		gossip := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				gossip = append(gossip, u)
			}
		}
		rt, err := NewRouter(RouterConfig{
			Peers:         workerURLs(workers),
			Self:          urls[i],
			GossipPeers:   gossip,
			ProbeInterval: probe,
			FailThreshold: 2,
			Client:        client,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		srv := &http.Server{Handler: rt.Handler()}
		ln := lns[i]
		go func() { _ = srv.Serve(ln) }()
		hr := &testHARouter{rt: rt, srv: srv, url: urls[i]}
		t.Cleanup(hr.kill)
		out[i] = hr
	}
	return out
}

// waitReplica blocks until the peer router holds a replica of the route.
func waitReplica(t *testing.T, rt *Router, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := rt.lookup(id); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("route %s never replicated", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosKillRouterMidJob is the router-HA acceptance test: a job is
// submitted through router A, A is hard-killed mid-replay, and router B
// — which never saw the submission — serves the job's status, SSE
// stream, and a result byte-identical to single-node ground truth from
// its replicated route table.
func TestChaosKillRouterMidJob(t *testing.T) {
	spec := slowFleetSpec()
	want := referenceCSV(t, spec)

	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	routers := startHARouters(t, workers, 2, 50*time.Millisecond, nil)
	a, b := routers[0], routers[1]

	st := submitVia(t, a.url, spec, http.StatusAccepted)
	if originOf(st.ID) == "" {
		t.Fatalf("HA router minted tokenless ID %q", st.ID)
	}
	waitRunningVia(t, a.url, st.ID)
	waitReplica(t, b.rt, st.ID)
	a.kill()

	final := waitDoneVia(t, b.url, st.ID, 180*time.Second)
	if final.State != service.JobDone {
		t.Fatalf("job via surviving router = %s (%s), want done", final.State, final.Error)
	}
	if got := resultVia(t, b.url, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("failover result differs from single-node ground truth (%d vs %d bytes)", len(got), len(want))
	}

	// The SSE surface works through the replica too: the stream replays
	// the worker's event log and ends in the terminal state.
	_, stream := getBody(t, b.url+"/v1/jobs/"+st.ID+"/events")
	if !strings.Contains(string(stream), `"state":"done"`) {
		t.Fatalf("replica SSE stream missing terminal state:\n%s", stream)
	}

	// The route arrived via replication, not resubmission: the replica
	// counter moved and exactly one worker executed the job.
	replicas := b.rt.metrics.replicas.Value()
	if replicas < 1 {
		t.Fatalf("surviving router adopted %d replicas, want >= 1", replicas)
	}
	var executed int64
	for _, w := range workers {
		executed += w.svc.Snapshot().Executed
	}
	if executed != 1 {
		t.Fatalf("fleet executed the job %d times across the router failover, want exactly 1", executed)
	}
}

// TestRouterRedirectBeforeReplication pins the replication-lag fallback:
// a sibling router that holds no replica yet answers 307 to the minting
// router for an ID whose origin token it recognizes, and a plain 404
// for a token belonging to no known sibling.
func TestRouterRedirectBeforeReplication(t *testing.T) {
	workers := startWorkers(t, 2, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	// A probe interval far beyond the test's lifetime: replication never
	// pulls, so the sibling is guaranteed to be in the lag window.
	routers := startHARouters(t, workers, 2, time.Hour, nil)
	a, b := routers[0], routers[1]

	st := submitVia(t, a.url, tinyFleetSpec(), http.StatusAccepted)

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Get(b.url + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("sibling without replica = %d, want 307", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Location"), a.url+"/v1/jobs/"+st.ID; got != want {
		t.Fatalf("redirect Location = %q, want %q", got, want)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("redirect missing Retry-After (clients must know to retry here)")
	}

	// A stock client follows the 307 to the origin and gets the answer —
	// the lag window is invisible to well-behaved clients.
	got := statusVia(t, b.url, st.ID)
	if got.ID != st.ID {
		t.Fatalf("redirected status carries ID %q, want %q", got.ID, st.ID)
	}

	// An origin token no sibling owns is a plain 404, not a redirect
	// loop ("zzzzzz" can never collide with a hex-derived token).
	resp2, err := noFollow.Get(b.url + "/v1/jobs/fleet-zzzzzz-000001")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-origin ID = %d, want 404", resp2.StatusCode)
	}

	// The redirect metric moved on the sibling.
	redirects := b.rt.metrics.redirects.Value()
	if redirects < 1 {
		t.Fatalf("redirect counter = %d, want >= 1", redirects)
	}
}
