package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	snnmap "repro"
	"repro/internal/fleet/resilience"
	"repro/internal/service"
)

// tinyFleetSpec maps in milliseconds; the modular app plus tree arch
// keeps fleet tests fast and the tables deterministic.
func tinyFleetSpec() snnmap.JobSpec {
	return snnmap.JobSpec{
		App:        "gen:modular:n=48,dur=120,seed=5",
		Arch:       "tree",
		Techniques: []string{"greedy"},
	}
}

// slowFleetSpec runs long enough (seconds, not milliseconds) to observe
// and interfere with a job mid-replay across real HTTP hops — the
// router tests kill workers, cancel jobs and fill queues while it runs.
func slowFleetSpec() snnmap.JobSpec {
	n, dur := 2048, 8000
	if testing.Short() {
		n, dur = 1024, 4000
	}
	return snnmap.JobSpec{
		App:        fmt.Sprintf("gen:smallworld:n=%d,dur=%d,seed=3", n, dur),
		Arch:       "mesh",
		Techniques: []string{"greedy"},
	}
}

// testWorker is one snnmapd worker on a real socket — real sockets so
// chaos tests can sever live connections the way a SIGKILL would.
type testWorker struct {
	svc   *service.Server
	srv   *http.Server
	url   string
	fetch *fetchHolder
}

// kill hard-stops the worker: listener and active connections severed,
// executor canceled without any drain handshake — the in-process
// approximation of kill -9 (the CI fleet-smoke job does the real one).
func (w *testWorker) kill() {
	_ = w.srv.Close()
	w.svc.Kill()
}

// fetchHolder defers FetchPeer wiring until every worker's URL is known
// (the hook is part of service.Config, which is consumed at New).
type fetchHolder struct {
	mu sync.Mutex
	fn func(context.Context, string) (*snnmap.Table, bool)
}

func (h *fetchHolder) set(fn func(context.Context, string) (*snnmap.Table, bool)) {
	h.mu.Lock()
	h.fn = fn
	h.mu.Unlock()
}

func (h *fetchHolder) fetch(ctx context.Context, hash string) (*snnmap.Table, bool) {
	h.mu.Lock()
	fn := h.fn
	h.mu.Unlock()
	if fn == nil {
		return nil, false
	}
	return fn(ctx, hash)
}

// startWorkers boots n workers; when peerFetch is set, each gets the
// fleet's tiered-cache hook over the full member list, fetching with
// client (nil: NewPeerFetcher's default).
func startWorkers(t *testing.T, n int, mkCfg func(i int) service.Config, peerFetch bool, client *http.Client) []*testWorker {
	t.Helper()
	workers := make([]*testWorker, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := mkCfg(i)
		holder := &fetchHolder{}
		if peerFetch {
			cfg.FetchPeer = holder.fetch
		}
		svc := service.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: svc.Handler()}
		go func() { _ = srv.Serve(ln) }()
		w := &testWorker{svc: svc, srv: srv, url: "http://" + ln.Addr().String(), fetch: holder}
		t.Cleanup(w.kill)
		workers[i] = w
		urls[i] = w.url
	}
	if peerFetch {
		for _, w := range workers {
			w.fetch.set(NewPeerFetcher(w.url, urls, 0, client))
		}
	}
	return workers
}

func workerURLs(workers []*testWorker) []string {
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.url
	}
	return urls
}

// startRouter boots a router over the workers with a fast probe cadence.
func startRouter(t *testing.T, workers []*testWorker) (*Router, string) {
	t.Helper()
	rt, err := NewRouter(RouterConfig{
		Peers:         workerURLs(workers),
		ProbeInterval: 50 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	return rt, srv.URL
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func submitVia(t *testing.T, base string, spec snnmap.JobSpec, wantCode int) service.JobStatus {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs", spec)
	if resp.StatusCode != wantCode {
		t.Fatalf("submit = %d %s, want %d", resp.StatusCode, body, wantCode)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return st
}

func statusVia(t *testing.T, base, id string) service.JobStatus {
	t.Helper()
	resp, body := getBody(t, base+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s = %d %s", id, resp.StatusCode, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return st
}

func waitDoneVia(t *testing.T, base, id string, timeout time.Duration) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := statusVia(t, base, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitRunningVia(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := statusVia(t, base, id)
		if st.State == service.JobRunning {
			return
		}
		if st.State.Terminal() {
			t.Skipf("job finished (%s) before it could be observed running", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func resultVia(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, body := getBody(t, base+"/v1/jobs/"+id+"/result?format=csv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s = %d %s", id, resp.StatusCode, body)
	}
	return body
}

// TestRouterAffinityAndCache pins the shard-key contract end to end:
// a spec routed through the fleet lands on exactly one worker, and the
// identical spec resubmitted through the router hits that worker's
// result cache — affinity IS the cache strategy.
func TestRouterAffinityAndCache(t *testing.T) {
	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	_, base := startRouter(t, workers)

	spec := tinyFleetSpec()
	st := submitVia(t, base, spec, http.StatusAccepted)
	if !strings.HasPrefix(st.ID, "fleet-") {
		t.Fatalf("router job ID %q not router-scoped", st.ID)
	}
	final := waitDoneVia(t, base, st.ID, 60*time.Second)
	if final.State != service.JobDone {
		t.Fatalf("job %s (%s)", final.State, final.Error)
	}
	if final.Result != "/v1/jobs/"+st.ID+"/result" {
		t.Fatalf("result path %q not rewritten to the router namespace", final.Result)
	}
	first := resultVia(t, base, st.ID)

	var executedOn []int
	for i, w := range workers {
		if w.svc.Snapshot().Executed > 0 {
			executedOn = append(executedOn, i)
		}
	}
	if len(executedOn) != 1 {
		t.Fatalf("job executed on workers %v, want exactly one", executedOn)
	}
	owner := workers[executedOn[0]]

	// The repeat lands on the same worker by hash affinity and is served
	// born-done from its local result cache.
	st2 := submitVia(t, base, spec, http.StatusOK)
	if st2.State != service.JobDone || !st2.Cached {
		t.Fatalf("repeat = %s cached=%v, want born done", st2.State, st2.Cached)
	}
	if snap := owner.svc.Snapshot(); snap.CacheHits != 1 {
		t.Fatalf("owner cache hits = %d, want 1 (affinity broke)", snap.CacheHits)
	}
	if got := resultVia(t, base, st2.ID); !bytes.Equal(got, first) {
		t.Fatal("cached result bytes differ through the router")
	}

	// Router metrics carry the per-node routing counters.
	_, metrics := getBody(t, base+"/metrics")
	if !strings.Contains(string(metrics), fmt.Sprintf("snnmapd_fleet_routed_total{node=%q} 2", owner.url)) {
		t.Fatalf("router metrics missing the owner's routed count:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), `snnmapd_fleet_nodes{state="alive"} 3`) {
		t.Fatalf("router metrics missing alive gauge:\n%s", metrics)
	}

	// The fleet view reports the full healthy membership.
	_, view := getBody(t, base+"/v1/fleet")
	var fv FleetView
	if err := json.Unmarshal(view, &fv); err != nil {
		t.Fatal(err)
	}
	if len(fv.Nodes) != 3 {
		t.Fatalf("fleet view nodes = %d, want 3", len(fv.Nodes))
	}
	for _, nv := range fv.Nodes {
		if nv.State != nodeAlive {
			t.Fatalf("node %s reported %s", nv.Addr, nv.State)
		}
	}
}

// TestPeerFetchAcrossEntryNodes pins the acceptance criterion for the
// tiered cache: a spec computed at its ring owner and then submitted at
// a DIFFERENT entry node is answered from the fleet's cache via a peer
// fetch — hit counters prove the path (peer hit at the entry, serve at
// the owner, zero session builds at the entry).
func TestPeerFetchAcrossEntryNodes(t *testing.T) {
	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, true, nil)
	_, base := startRouter(t, workers)

	spec := tinyFleetSpec()
	st := submitVia(t, base, spec, http.StatusAccepted)
	if final := waitDoneVia(t, base, st.ID, 60*time.Second); final.State != service.JobDone {
		t.Fatalf("job %s (%s)", final.State, final.Error)
	}
	ref := resultVia(t, base, st.ID)

	var owner, entry *testWorker
	for _, w := range workers {
		if w.svc.Snapshot().Executed > 0 {
			owner = w
		} else if entry == nil {
			entry = w
		}
	}
	if owner == nil || entry == nil {
		t.Fatal("could not identify owner and entry workers")
	}

	// Same spec, different entry node, no router involved: the entry
	// worker's local tier misses and the peer tier answers.
	st2 := submitVia(t, entry.url, spec, http.StatusOK)
	if st2.State != service.JobDone || !st2.Cached {
		t.Fatalf("entry-node repeat = %s cached=%v, want born done", st2.State, st2.Cached)
	}
	if got := resultVia(t, entry.url, st2.ID); !bytes.Equal(got, ref) {
		t.Fatal("peer-fetched table differs from the owner's")
	}
	esnap := entry.svc.Snapshot()
	if esnap.PeerHits != 1 {
		t.Fatalf("entry peer hits = %d, want 1", esnap.PeerHits)
	}
	if esnap.PoolBuilds != 0 || esnap.Executed != 0 {
		t.Fatalf("entry node recomputed (builds %d, executed %d)", esnap.PoolBuilds, esnap.Executed)
	}
	if osnap := owner.svc.Snapshot(); osnap.PeerServes != 1 {
		t.Fatalf("owner peer serves = %d, want 1", osnap.PeerServes)
	}
}

// TestRouterSSESlowSubscriber streams a proxied job's events through
// the router with a deliberately slow reader. The worker-side event log
// is lossless per subscriber and the relay applies backpressure instead
// of buffering or dropping, so the slow client still sees the complete
// history ending in the terminal state event.
func TestRouterSSESlowSubscriber(t *testing.T) {
	workers := startWorkers(t, 2, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	_, base := startRouter(t, workers)

	st := submitVia(t, base, slowFleetSpec(), http.StatusAccepted)
	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Read 32 bytes at a time with a pause: a subscriber far slower than
	// the event producer, especially across the end-of-run event burst.
	var stream bytes.Buffer
	buf := make([]byte, 32)
	deadline := time.Now().Add(120 * time.Second)
	for {
		n, err := resp.Body.Read(buf)
		stream.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream read: %v (got so far:\n%s)", err, stream.String())
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never completed:\n%s", stream.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	body := stream.String()
	for _, want := range []string{
		`"state":"queued"`, `"state":"running"`,
		`event: session`, `event: stage`, `"stage":"simulate"`,
		`"state":"done"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("slow-subscriber stream missing %q:\n%s", want, body)
		}
	}
}

// TestRouterStatusAfterSSE pins the router's status after an SSE relay:
// the relay sees the terminal state event and marks the route terminal
// without fetching the final status, so the next GET must still reach
// the worker once and report done with the result link and finish time
// instead of the status stored at submit.
func TestRouterStatusAfterSSE(t *testing.T) {
	workers := startWorkers(t, 1, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	_, base := startRouter(t, workers)

	st := submitVia(t, base, tinyFleetSpec(), http.StatusAccepted)
	resp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stream), `"state":"done"`) {
		t.Fatalf("event stream ended before done:\n%s", stream)
	}

	for i := 0; i < 2; i++ { // the second read answers from the stored status
		got := statusVia(t, base, st.ID)
		if got.State != service.JobDone || got.Result == "" || got.Finished == nil {
			t.Fatalf("status read %d after SSE = %+v, want done with Result and Finished set", i, got)
		}
		if got.ID != st.ID {
			t.Fatalf("status read %d ID = %s, want the router's %s", i, got.ID, st.ID)
		}
	}
}

// TestRouterCancelPropagates pins DELETE propagation router→worker
// mid-replay: the cancel lands on the owning worker while the job is
// running and the job reaches canceled promptly on both sides.
func TestRouterCancelPropagates(t *testing.T) {
	workers := startWorkers(t, 2, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	_, base := startRouter(t, workers)

	st := submitVia(t, base, slowFleetSpec(), http.StatusAccepted)
	waitRunningVia(t, base, st.ID)

	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	final := waitDoneVia(t, base, st.ID, 30*time.Second)
	if final.State == service.JobDone {
		t.Skip("job completed before the cancellation landed")
	}
	if final.State != service.JobCanceled {
		t.Fatalf("state after cancel = %s (%s), want canceled", final.State, final.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("router-proxied cancellation took %v", elapsed)
	}

	// The owning worker observed the cancel in its own store — the
	// propagation was real, not a router-local fiction.
	found := false
	for _, w := range workers {
		_, body := getBody(t, w.url+"/v1/jobs")
		if strings.Contains(string(body), string(service.JobCanceled)) {
			found = true
		}
	}
	if !found {
		t.Fatal("no worker holds the canceled job")
	}
}

// TestRouterBatchScatter pins the scattered batch: specs are placed by
// ring owner, statuses come back in input order under router IDs,
// duplicates collapse, and every result is fetchable through the router.
func TestRouterBatchScatter(t *testing.T) {
	workers := startWorkers(t, 3, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	rt, base := startRouter(t, workers)

	specs := make([]snnmap.JobSpec, 0, 5)
	for seed := int64(1); seed <= 4; seed++ {
		s := tinyFleetSpec()
		s.Seed = seed
		specs = append(specs, s)
	}
	specs = append(specs, specs[0]) // duplicate of [0]

	resp, body := postJSON(t, base+"/v1/batches", map[string]any{"jobs": specs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d %s", resp.StatusCode, body)
	}
	var br struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Jobs) != 5 {
		t.Fatalf("batch statuses = %d, want 5", len(br.Jobs))
	}
	if br.Jobs[0].ID != br.Jobs[4].ID {
		t.Fatalf("duplicate specs got distinct router jobs: %s vs %s", br.Jobs[0].ID, br.Jobs[4].ID)
	}
	for i, st := range br.Jobs[:4] {
		if got := waitDoneVia(t, base, st.ID, 60*time.Second); got.State != service.JobDone {
			t.Fatalf("batch job %d = %s (%s)", i, got.State, got.Error)
		}
		if len(resultVia(t, base, st.ID)) == 0 {
			t.Fatalf("batch job %d has empty result", i)
		}
	}

	// The scatter agreed with the ring: every spec executed on its owner.
	ring := NewRing(0, workerURLs(workers)...)
	wantPerNode := map[string]int64{}
	seen := map[string]bool{}
	for i, s := range specs[:4] {
		norm, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if seen[norm.Hash()] {
			continue
		}
		seen[norm.Hash()] = true
		owner, _ := ring.Owner(norm.Hash())
		wantPerNode[owner]++
		_ = i
	}
	for _, w := range workers {
		if got := w.svc.Snapshot().Executed; got != wantPerNode[w.url] {
			t.Fatalf("worker %s executed %d jobs, ring owner share is %d", w.url, got, wantPerNode[w.url])
		}
	}
	if got := rt.metrics.batches.Value(); got != 1 {
		t.Fatalf("router batches counter = %d, want 1", got)
	}
}

// TestRouterOverloadRelay pins the load-shed path through the router: a
// full worker queue surfaces to the fleet client as the worker's own
// 429 (Retry-After header and machine-readable body intact), after the
// router exhausted the successor list (counting a spill).
func TestRouterOverloadRelay(t *testing.T) {
	workers := startWorkers(t, 1, func(int) service.Config {
		return service.Config{Workers: 1, QueueDepth: 1}
	}, false, nil)
	rt, base := startRouter(t, workers)

	running := submitVia(t, base, slowFleetSpec(), http.StatusAccepted)
	waitRunningVia(t, base, running.ID)
	filler := tinyFleetSpec()
	filler.Seed = 401
	submitVia(t, base, filler, http.StatusAccepted)

	over := tinyFleetSpec()
	over.Seed = 402
	resp, body := postJSON(t, base+"/v1/jobs", over)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow via router = %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("relayed shed lost the Retry-After header")
	}
	if !strings.Contains(string(body), `"code": "overloaded"`) {
		t.Fatalf("relayed shed body:\n%s", body)
	}
	if got := rt.metrics.spills.Value(); got < 1 {
		t.Fatalf("router spills = %d, want >= 1", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+running.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestRouterDeadlineAtEdge pins that deadline propagation starts at the
// router, not the worker: a budget already spent on arrival is refused
// 504 before any proxying, and a live budget is forwarded so the worker
// hop observes the same clock the client started.
func TestRouterDeadlineAtEdge(t *testing.T) {
	workers := startWorkers(t, 1, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	_, base := startRouter(t, workers)

	b, err := json.Marshal(tinyFleetSpec())
	if err != nil {
		t.Fatal(err)
	}

	// Spent budget: refused at the router edge, no job created anywhere.
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
	req.Header.Set(resilience.DeadlineHeader, "1000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline submit via router = %d %s, want 504", resp.StatusCode, body)
	}
	if snap := workers[0].svc.Snapshot(); snap.CacheHits+snap.CacheMisses != 0 {
		t.Fatal("worker performed a cache lookup despite spent budget — expired submit was proxied")
	}

	// Live budget: admitted, and the worker-side middleware sees the
	// forwarded header (a worker-local deadline refusal would be a 504
	// too — the 202 proves the budget survived the hop un-mangled).
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
	req.Header.Set(resilience.DeadlineHeader, strconv.FormatInt(time.Now().Add(time.Minute).UnixMilli(), 10))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("live-deadline submit via router = %d %s", resp.StatusCode, body)
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if final := waitDoneVia(t, base, st.ID, 60*time.Second); final.State != service.JobDone {
		t.Fatalf("job with live deadline = %s (%s)", final.State, final.Error)
	}
}

// TestRouterForwardsClientIdempotencyKey pins that a client-supplied
// X-Idempotency-Key survives the proxy hop: resubmitting the same
// intent through the router collapses onto the worker's already-running
// job instead of forking a twin under the router's own retry key.
func TestRouterForwardsClientIdempotencyKey(t *testing.T) {
	workers := startWorkers(t, 2, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	rt, base := startRouter(t, workers)

	b, err := json.Marshal(slowFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, service.JobStatus) {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
		req.Header.Set(service.IdempotencyKeyHeader, "client-intent-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st service.JobStatus
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxSpecBytes)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	code, st := post()
	if code != http.StatusAccepted {
		t.Fatalf("keyed submit via router = %d", code)
	}
	waitRunningVia(t, base, st.ID)

	code2, st2 := post()
	if code2 != http.StatusOK {
		t.Fatalf("keyed resubmit via router = %d, want 200 replay", code2)
	}
	var replays int64
	for _, w := range workers {
		replays += w.svc.Snapshot().IdemReplays
	}
	if replays != 1 {
		t.Fatalf("worker-side idempotent replays = %d, want 1", replays)
	}

	if final := waitDoneVia(t, base, st.ID, 120*time.Second); final.State != service.JobDone {
		t.Fatalf("job = %s (%s)", final.State, final.Error)
	}
	if final2 := waitDoneVia(t, base, st2.ID, 30*time.Second); final2.State != service.JobDone {
		t.Fatalf("aliased route = %s (%s)", final2.State, final2.Error)
	}
	var executed int64
	for _, w := range workers {
		executed += w.svc.Snapshot().Executed
	}
	if executed != 1 {
		t.Fatalf("fleet executed %d jobs for one keyed intent, want 1", executed)
	}
	_ = rt
}

// TestRouterBatchRollbackShortStatuses pins the all-or-nothing batch
// against a worker that answers a sub-batch with too few statuses: the
// router answers 502 and cancels the jobs that worker did accept.
func TestRouterBatchRollbackShortStatuses(t *testing.T) {
	deleted := make(chan string, 4)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/batches", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		service.WriteJSON(w, http.StatusOK, service.BatchResponse{Jobs: []service.JobStatus{
			{ID: "job-000001", State: service.JobQueued},
		}})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		deleted <- r.PathValue("id")
		service.WriteJSON(w, http.StatusOK, service.JobStatus{ID: r.PathValue("id"), State: service.JobCanceled})
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	rt, err := NewRouter(RouterConfig{Peers: []string{stub.URL}, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	a, b := tinyFleetSpec(), tinyFleetSpec()
	b.Seed = 2
	resp, body := postJSON(t, srv.URL+"/v1/batches", service.BatchRequest{Jobs: []snnmap.JobSpec{a, b}})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("short status array via router = %d %s, want 502", resp.StatusCode, body)
	}
	select {
	case id := <-deleted:
		if id != "job-000001" {
			t.Fatalf("router canceled %q, want the stub's job-000001", id)
		}
	default:
		t.Fatal("router answered 502 without canceling the job the worker accepted")
	}
}

// specOwnedBy returns a variant of base (by seed) whose content address
// the ring assigns to owner, skipping the seeds in used.
func specOwnedBy(t *testing.T, ring *Ring, base snnmap.JobSpec, owner string, used map[int64]bool) snnmap.JobSpec {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		if used[seed] {
			continue
		}
		s := base
		s.Seed = seed
		norm, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if o, _ := ring.Owner(norm.Hash()); o == owner {
			used[seed] = true
			return s
		}
	}
	t.Fatalf("no seed maps to %s", owner)
	return base
}

// TestRouterBatchSpillAndRefusal pins the sub-batch spill walk: a
// sub-batch whose owner sheds lands on a ring successor, and one that
// every worker sheds relays the worker's 429 to the client while the
// sub-batches already placed are canceled.
func TestRouterBatchSpillAndRefusal(t *testing.T) {
	workers := startWorkers(t, 2, func(int) service.Config {
		return service.Config{Workers: 1, QueueDepth: 1}
	}, false, nil)
	rt, base := startRouter(t, workers)
	ring := NewRing(0, workerURLs(workers)...)
	nodeA, nodeB := workers[0].url, workers[1].url
	used := map[int64]bool{}
	batch := func(specs ...snnmap.JobSpec) (*http.Response, []byte) {
		return postJSON(t, base+"/v1/batches", service.BatchRequest{Jobs: specs})
	}
	var slow []string
	defer func() {
		for _, id := range slow {
			req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	// Fill A: one job running, one queued (QueueDepth 1).
	st := submitVia(t, base, specOwnedBy(t, ring, slowFleetSpec(), nodeA, used), http.StatusAccepted)
	slow = append(slow, st.ID)
	waitRunningVia(t, base, st.ID)
	submitVia(t, base, specOwnedBy(t, ring, tinyFleetSpec(), nodeA, used), http.StatusAccepted)

	// Spill: A sheds, the sub-batch lands on its successor B.
	resp, body := batch(specOwnedBy(t, ring, tinyFleetSpec(), nodeA, used))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with a shedding owner = %d %s, want 200 from the successor", resp.StatusCode, body)
	}
	if got := rt.metrics.spills.Value(); got < 1 {
		t.Fatalf("router spills = %d, want >= 1", got)
	}
	var br service.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if ro, ok := rt.lookup(br.Jobs[0].ID); !ok {
		t.Fatalf("no route for %s", br.Jobs[0].ID)
	} else if node, _, _ := ro.snapshot(); node != nodeB {
		t.Fatalf("spilled sub-batch placed on %s, want successor %s", node, nodeB)
	}
	waitDoneVia(t, base, br.Jobs[0].ID, 60*time.Second)

	// Refusal: B busy, so its sub-batch fills B's queue; A's sub-batch is
	// then shed by A and by B. The client gets the worker's 429 and B's
	// placed job is canceled.
	st = submitVia(t, base, specOwnedBy(t, ring, slowFleetSpec(), nodeB, used), http.StatusAccepted)
	slow = append(slow, st.ID)
	waitRunningVia(t, base, st.ID)
	onB := specOwnedBy(t, ring, tinyFleetSpec(), nodeB, used)
	resp, body = batch(onB, specOwnedBy(t, ring, tinyFleetSpec(), nodeA, used))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch shed everywhere = %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("relayed shed lost the Retry-After header")
	}
	if !strings.Contains(string(body), `"code": "overloaded"`) {
		t.Fatalf("relayed shed body:\n%s", body)
	}
	norm, err := onB.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, list := getBody(t, nodeB+"/v1/jobs")
	var jobs struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(list, &jobs); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range jobs.Jobs {
		if j.Hash == norm.Hash() {
			found = true
			if j.State != service.JobCanceled {
				t.Fatalf("placed sub-batch job on B = %s, want canceled", j.State)
			}
		}
	}
	if !found {
		t.Fatal("the sub-batch placed on B never reached it")
	}
}
