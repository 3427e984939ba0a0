package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	snnmap "repro"
	"repro/internal/service"
)

// warmFixture is the shared setup of the join-warming tests: a running
// 2-worker fleet whose caches hold a known set of results, plus a
// listener (not yet serving) for the joiner, allocated up front so the
// post-join ring — and therefore exactly which entries the joiner will
// own and warm — is known before any job runs.
type warmFixture struct {
	workers []*testWorker
	base    string // router URL
	joinURL string
	ln      net.Listener

	specs  []snnmap.JobSpec
	hashes []string
	owned  map[string]bool // hash → owned by the joiner post-join
	ref    map[string][]byte
}

// newWarmFixture seeds the fleet with nOwned specs the joiner will own
// and nOther it will not, all computed (and so cached) via the router.
func newWarmFixture(t *testing.T, nOwned, nOther int) *warmFixture {
	t.Helper()
	workers := startWorkers(t, 2, func(int) service.Config { return service.Config{Workers: 2} }, false)
	_, base := startRouter(t, workers)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &warmFixture{
		workers: workers,
		base:    base,
		joinURL: "http://" + ln.Addr().String(),
		ln:      ln,
		owned:   map[string]bool{},
		ref:     map[string][]byte{},
	}
	postRing := NewRing(0, workers[0].url, workers[1].url, f.joinURL)
	haveOwned, haveOther := 0, 0
	for seed := int64(1); haveOwned < nOwned || haveOther < nOther; seed++ {
		if seed > 500 {
			t.Fatal("could not find enough specs on both sides of the join split")
		}
		s := tinyFleetSpec()
		s.Seed = seed
		norm, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		h := norm.Hash()
		owner, _ := postRing.Owner(h)
		if owner == f.joinURL {
			if haveOwned == nOwned {
				continue
			}
			haveOwned++
			f.owned[h] = true
		} else {
			if haveOther == nOther {
				continue
			}
			haveOther++
		}
		f.specs = append(f.specs, s)
		f.hashes = append(f.hashes, h)
	}
	for i, s := range f.specs {
		st := submitVia(t, base, s, http.StatusAccepted)
		if final := waitDoneVia(t, base, st.ID, 60*time.Second); final.State != service.JobDone {
			t.Fatalf("seed job %d = %s (%s)", i, final.State, final.Error)
		}
		f.ref[f.hashes[i]] = resultVia(t, base, st.ID)
	}
	return f
}

// join boots the joiner worker with its warmer wired the way
// cmd/snnmapd wires it (the worker's cache to warm, its metrics registry
// to report on) and starts the warm pass. Returns the joiner's service
// and a channel closed when the pass completes.
func (f *warmFixture) join(t *testing.T, rate int) (*service.Server, *Warmer, <-chan struct{}) {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	warmer := NewWarmer(WarmerConfig{
		Self:  f.joinURL,
		Peers: []string{f.workers[0].url, f.workers[1].url, f.joinURL},
		Rate:  rate,
		Cache: svc,
	})
	warmer.RegisterMetrics(svc.Metrics())
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(f.ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		svc.Kill()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		warmer.Run(context.Background())
	}()
	return svc, warmer, done
}

// TestWorkerJoinWarmsCache is the join acceptance test: a worker joins
// a loaded fleet, pulls exactly the entries the post-join ring assigns
// it — rate-bounded — while client requests keep succeeding, and ends
// with a warm cache that serves those entries locally, byte-identical.
func TestWorkerJoinWarmsCache(t *testing.T) {
	const nOwned, rate = 4, 8
	f := newWarmFixture(t, nOwned, 4)

	start := time.Now()
	svc, warmer, done := f.join(t, rate)

	// Mid-warm load: repeats through the router keep being served — the
	// join is invisible to clients (zero request failures).
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			s := f.specs[i%len(f.specs)]
			if st := submitVia(t, f.base, s, http.StatusOK); st.State != service.JobDone {
				t.Fatalf("mid-warm repeat = %s, want done", st.State)
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		break
	}
	elapsed := time.Since(start)

	planned, fetched, errs, isDone := warmer.Progress()
	if !isDone {
		t.Fatal("warm pass not marked done")
	}
	if planned != nOwned || fetched != nOwned || errs != 0 {
		t.Fatalf("warm progress planned=%d fetched=%d errors=%d, want %d/%d/0", planned, fetched, errs, nOwned, nOwned)
	}
	// The transfer respected the rate bound: n entries at r/s take at
	// least (n-1)/r seconds (first pull is immediate, the rest gated).
	if minElapsed := time.Duration(planned-1) * time.Second / rate; elapsed < minElapsed*9/10 {
		t.Fatalf("warm transfer took %v, rate bound implies >= %v", elapsed, minElapsed)
	}

	// Post-warm, the joiner answers its owned entries from local cache:
	// born-done, byte-identical, zero compute.
	for i, s := range f.specs {
		if !f.owned[f.hashes[i]] {
			continue
		}
		st := submitVia(t, f.joinURL, s, http.StatusOK)
		if st.State != service.JobDone || !st.Cached {
			t.Fatalf("post-warm submit = %s cached=%v, want born done", st.State, st.Cached)
		}
		if got := resultVia(t, f.joinURL, st.ID); !bytes.Equal(got, f.ref[f.hashes[i]]) {
			t.Fatalf("warmed result for %s differs from the fleet's", f.hashes[i])
		}
	}
	snap := svc.Snapshot()
	if snap.Executed != 0 || snap.CacheHits != int64(nOwned) {
		t.Fatalf("joiner executed=%d cacheHits=%d, want 0/%d (warm cache should absorb all owned repeats)",
			snap.Executed, snap.CacheHits, nOwned)
	}

	// Warm progress rides the joiner's /metrics.
	_, metrics := getBody(t, f.joinURL+"/metrics")
	for _, want := range []string{
		"snnmapd_cache_warm_planned 4",
		"snnmapd_cache_warm_fetched_total 4",
		"snnmapd_cache_warm_errors_total 0",
		"snnmapd_cache_warm_done 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("joiner metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestChaosKillDuringWarm kills a warm-source worker mid-transfer: the
// warm pass degrades gracefully (errors counted, never wedged), every
// entry that did arrive is byte-identical, and the fleet keeps serving
// every spec byte-identically — the kill can cost only recomputes.
func TestChaosKillDuringWarm(t *testing.T) {
	const nOwned = 4
	f := newWarmFixture(t, nOwned, 2)

	// Rate 2/s spreads four pulls over >= 1.5s — a wide-open window to
	// kill a source inside.
	svc, warmer, done := f.join(t, 2)
	time.Sleep(300 * time.Millisecond)
	victim := f.workers[0]
	victim.kill()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("warm pass wedged after source death")
	}
	planned, fetched, errs, _ := warmer.Progress()
	if planned != nOwned || fetched+errs != planned {
		t.Fatalf("warm progress planned=%d fetched=%d errors=%d: pass did not account for every entry", planned, fetched, errs)
	}

	// Every entry that arrived is byte-identical to the reference.
	warmedCount := 0
	for _, h := range f.hashes {
		if !f.owned[h] || !svc.CacheHas(h) {
			continue
		}
		warmedCount++
		_, body := getBody(t, f.joinURL+"/v1/cache/"+h)
		table, err := snnmap.ReadTableJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("warmed table %s: %v", h, err)
		}
		var csv bytes.Buffer
		if err := table.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv.Bytes(), f.ref[h]) {
			t.Fatalf("warmed table %s differs from the fleet's result", h)
		}
	}
	if int64(warmedCount) != fetched {
		t.Fatalf("joiner cache holds %d warmed entries, warmer reports %d fetched", warmedCount, fetched)
	}

	// The fleet still serves every spec byte-identically through the
	// router — the survivor recomputes what died with the victim, and
	// content addressing guarantees identical bytes.
	for i, s := range f.specs {
		resp, body := postJSON(t, f.base+"/v1/jobs", s)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post-kill submit %d = %d %s", i, resp.StatusCode, body)
		}
		st := decodeStatus(t, body)
		if final := waitDoneVia(t, f.base, st.ID, 60*time.Second); final.State != service.JobDone {
			t.Fatalf("post-kill job %d = %s (%s)", i, final.State, final.Error)
		}
		if got := resultVia(t, f.base, st.ID); !bytes.Equal(got, f.ref[f.hashes[i]]) {
			t.Fatalf("post-kill result %d differs from pre-kill reference", i)
		}
	}
}

// decodeStatus unmarshals a job-status body.
func decodeStatus(t *testing.T, body []byte) service.JobStatus {
	t.Helper()
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return st
}
