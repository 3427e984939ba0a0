package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	snnmap "repro"
	"repro/internal/service"
)

// mapCache is a CacheStore stub for exercising the warmer without a
// full service.
type mapCache struct {
	mu sync.Mutex
	m  map[string]*snnmap.Table
}

func (c *mapCache) CacheHas(h string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[h]
	return ok
}

func (c *mapCache) CachePut(h string, t *snnmap.Table) {
	c.mu.Lock()
	c.m[h] = t
	c.mu.Unlock()
}

// faultRule fails the first fail requests that match its method and
// path prefix (and node, the peer's base URL, when set): with a
// transport error when status is 0, else with a synthetic response of
// that status. hits counts every matching request, injected the ones it
// failed.
type faultRule struct {
	method, path, node string
	fail, status       int

	hits, injected atomic.Int64
}

func (r *faultRule) matches(req *http.Request) bool {
	return req.Method == r.method && strings.HasPrefix(req.URL.Path, r.path) &&
		(r.node == "" || r.node == req.URL.Scheme+"://"+req.URL.Host)
}

// faultyTransport is an http.RoundTripper that injects faults in front
// of the default transport. Every matching rule counts a hit; the first
// matching rule with failures left injects, and the request never
// reaches the network.
type faultyTransport struct {
	mu    sync.Mutex
	rules []*faultRule
}

// newFaultyClient returns a client whose requests pass through a
// faultyTransport holding rules.
func newFaultyClient(rules ...*faultRule) (*http.Client, *faultyTransport) {
	ft := &faultyTransport{rules: rules}
	return &http.Client{Transport: ft, Timeout: 30 * time.Second}, ft
}

// add arms one more rule, behind those already armed.
func (ft *faultyTransport) add(r *faultRule) {
	ft.mu.Lock()
	ft.rules = append(ft.rules, r)
	ft.mu.Unlock()
}

func (ft *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var fire *faultRule
	ft.mu.Lock()
	for _, r := range ft.rules {
		if !r.matches(req) {
			continue
		}
		r.hits.Add(1)
		if fire == nil && r.injected.Load() < int64(r.fail) {
			r.injected.Add(1)
			fire = r
		}
	}
	ft.mu.Unlock()
	if fire == nil {
		return http.DefaultTransport.RoundTrip(req)
	}
	if req.Body != nil {
		_ = req.Body.Close()
	}
	if fire.status == 0 {
		return nil, fmt.Errorf("injected fault: %s %s", req.Method, req.URL)
	}
	return &http.Response{
		StatusCode: fire.status,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader("{}\n")),
		Request:    req,
	}, nil
}

// TestChaosInjectedFaultsRecover is the fault-injection acceptance
// test: one rule per failure-prone peer call — proxy, requeue, probe,
// replicate, peer fetch, cache warm — fails that call's first attempt,
// a workload is driven across all of them, and the test asserts both
// that every rule injected (its own counters) and that every operation
// still succeeded end to end (the recovery paths are real).
func TestChaosInjectedFaultsRecover(t *testing.T) {
	peerFetch := &faultRule{method: http.MethodGet, path: "/v1/cache/", fail: 1}
	workerClient, _ := newFaultyClient(peerFetch)
	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, true, workerClient)
	ringAll := NewRing(0, workerURLs(workers)...)

	slow := slowFleetSpec()
	slowNorm, err := slow.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	slowHash := slowNorm.Hash()
	slowOwner, _ := ringAll.Owner(slowHash)
	// The probe rule fails a node other than the slow job's owner: the
	// owner already takes one failure from the injected proxy attempt,
	// and a second would reach the death threshold before the kill.
	var probeNode string
	for _, w := range workers {
		if w.url != slowOwner {
			probeNode = w.url
		}
	}

	proxy := &faultRule{method: http.MethodPost, path: "/v1/jobs", fail: 1}
	probe := &faultRule{method: http.MethodGet, path: "/healthz", node: probeNode, fail: 1}
	replicate := &faultRule{method: http.MethodGet, path: "/v1/fleet/routes", fail: 1}
	routerClient, routerFaults := newFaultyClient(proxy, probe, replicate)
	routers := startHARouters(t, workers, 2, 50*time.Millisecond, routerClient)
	r1 := routers[0]

	// Proxy: the submission's first POST fails and the retry policy
	// absorbs it — the client sees a clean 202 and the job stays on its
	// ring owner instead of spilling.
	stSlow := submitVia(t, r1.url, slow, http.StatusAccepted)
	waitRunningVia(t, r1.url, stSlow.ID)
	victim := routedWorker(t, r1.rt, workers)
	if victim.url != slowOwner {
		t.Fatalf("slow job placed on %s, want its ring owner %s", victim.url, slowOwner)
	}

	// A tiny spec whose ring owner is not the victim, so its cached
	// result survives the upcoming kill.
	var tiny snnmap.JobSpec
	var tinyHash string
	var owner *testWorker
	for seed := int64(100); owner == nil; seed++ {
		s := tinyFleetSpec()
		s.Seed = seed
		norm, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if o, _ := ringAll.Owner(norm.Hash()); o != victim.url {
			tiny, tinyHash = s, norm.Hash()
			for _, w := range workers {
				if w.url == o {
					owner = w
				}
			}
		}
	}
	stTiny := submitVia(t, r1.url, tiny, http.StatusAccepted)
	if final := waitDoneVia(t, r1.url, stTiny.ID, 60*time.Second); final.State != service.JobDone {
		t.Fatalf("tiny job = %s (%s)", final.State, final.Error)
	}
	ref := resultVia(t, r1.url, stTiny.ID)

	// Replicate: the first route-table pull fails; a later one lands
	// the route on the sibling router.
	waitReplica(t, routers[1].rt, stTiny.ID)

	// Peer fetch: the tiny spec at a non-owner entry node — the first
	// fetch fails, the retry pulls the owner's table.
	var entry *testWorker
	for _, w := range workers {
		if w != owner && w != victim {
			entry = w
		}
	}
	st2 := submitVia(t, entry.url, tiny, http.StatusOK)
	if st2.State != service.JobDone || !st2.Cached {
		t.Fatalf("entry-node repeat = %s cached=%v, want born done", st2.State, st2.Cached)
	}
	if got := resultVia(t, entry.url, st2.ID); !bytes.Equal(got, ref) {
		t.Fatal("peer-fetched table differs despite injected first attempt")
	}
	if hits := entry.svc.Snapshot().PeerHits; hits != 1 {
		t.Fatalf("entry peer hits = %d, want 1", hits)
	}

	// Requeue: kill the worker running the slow job. The first
	// successor answers the resubmission 503, the sweep moves to the
	// next successor, and the job still completes there.
	var successor string
	for _, n := range r1.rt.successors(slowHash) {
		if n != victim.url {
			successor = n
			break
		}
	}
	requeue := &faultRule{method: http.MethodPost, path: "/v1/jobs", node: successor,
		fail: 1, status: http.StatusServiceUnavailable}
	routerFaults.add(requeue)
	victim.kill()
	if final := waitDoneVia(t, r1.url, stSlow.ID, 180*time.Second); final.State != service.JobDone {
		t.Fatalf("job after worker death = %s (%s), want done", final.State, final.Error)
	}
	ro, _ := r1.rt.lookup(stSlow.ID)
	if node, _, _ := ro.snapshot(); node == victim.url || node == successor {
		t.Fatalf("requeued job on %s, want the successor after the refusing %s", node, successor)
	}

	// Warm: a synthetic joiner whose post-join ring owns the tiny hash
	// pulls it from the owner — first pull fails, the retry lands it.
	self := ""
	for i := 0; self == ""; i++ {
		cand := fmt.Sprintf("http://warm-joiner-%d:1", i)
		if o, _ := NewRing(0, owner.url, cand).Owner(tinyHash); o == cand {
			self = cand
		}
	}
	warmRule := &faultRule{method: http.MethodGet, path: "/v1/cache/", fail: 1}
	warmClient, _ := newFaultyClient(warmRule)
	cache := &mapCache{m: map[string]*snnmap.Table{}}
	warm := NewWarmer(WarmerConfig{Self: self, Peers: []string{owner.url, self}, Rate: 50, Cache: cache, Client: warmClient})
	warm.Run(context.Background())
	if _, fetched, _, _ := warm.Progress(); fetched < 1 {
		t.Fatalf("warmer fetched %d entries, want >= 1", fetched)
	}
	if !cache.CacheHas(tinyHash) {
		t.Fatal("warmer did not land the owned entry despite retry")
	}

	// Coverage: every rule injected. Probes run on their own cadence;
	// the node they failed stays alive, one failure short of death.
	rules := map[string]*faultRule{"proxy": proxy, "requeue": requeue, "probe": probe,
		"replicate": replicate, "peer fetch": peerFetch, "warm": warmRule}
	deadline := time.Now().Add(15 * time.Second)
	for name, r := range rules {
		for r.injected.Load() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%s rule never injected (%d hits)", name, r.hits.Load())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, hr := range routers {
		if !hr.rt.mon.alive(probeNode) {
			t.Fatalf("router %s declared %s dead after one injected probe failure", hr.url, probeNode)
		}
	}
}
