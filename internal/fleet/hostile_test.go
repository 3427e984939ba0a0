package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	snnmap "repro"
	"repro/internal/service"
)

// The hostile-peer tests pin the per-site body bounds of the fleet's
// node-to-node calls: a peer that answers with a well-formed body larger
// than the site's limit gets a miss or an ignored answer, never a
// decode of however many bytes it chose to send.

// oversizedTable is the JSON of a valid table whose title alone runs
// past maxBatchBytes.
func oversizedTable(t *testing.T) []byte {
	t.Helper()
	tab := snnmap.NewTable("hostile", strings.Repeat("x", maxBatchBytes+1), snnmap.Column{Name: "n", Type: snnmap.ColInt})
	if err := tab.AddRow(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := snnmap.ReadTableJSON(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("oversized table does not decode: %v", err)
	}
	return buf.Bytes()
}

// ownedHash returns a content address the ring over members assigns to
// owner.
func ownedHash(t *testing.T, owner string, members ...string) string {
	t.Helper()
	ring := NewRing(0, members...)
	for i := 0; i < 10000; i++ {
		h := fmt.Sprintf("%064x", i)
		if o, _ := ring.Owner(h); o == owner {
			return h
		}
	}
	t.Fatalf("no hash maps to %s", owner)
	return ""
}

// TestPeerFetchRejectsOversizedTable: the ring owner answers the peer
// cache fetch with a valid table over maxBatchBytes; the fetch is a miss.
func TestPeerFetchRejectsOversizedTable(t *testing.T) {
	big := oversizedTable(t)
	var served atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(big)
	}))
	defer peer.Close()

	self := "http://self.invalid:1"
	hash := ownedHash(t, peer.URL, peer.URL, self)
	table, ok := NewPeerFetcher(self, []string{peer.URL}, 0, nil)(context.Background(), hash)
	if served.Load() == 0 {
		t.Fatal("the owner was never asked")
	}
	if ok || table != nil {
		t.Fatal("oversized peer table accepted as a hit")
	}
}

// TestWarmRejectsOversizedTable: a peer lists an entry the joiner owns
// and serves it over maxBatchBytes; the warm pass counts an error and
// installs nothing.
func TestWarmRejectsOversizedTable(t *testing.T) {
	big := oversizedTable(t)
	self := "http://joiner.invalid:1"
	var hash string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string][]string{"hashes": {hash}})
	})
	mux.HandleFunc("GET /v1/cache/{hash}", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(big)
	})
	peer := httptest.NewServer(mux)
	defer peer.Close()
	hash = ownedHash(t, self, peer.URL, self)

	cache := &mapCache{m: map[string]*snnmap.Table{}}
	warm := NewWarmer(WarmerConfig{Self: self, Peers: []string{peer.URL}, Rate: 1000, Cache: cache})
	warm.Run(context.Background())
	planned, fetched, errs, done := warm.Progress()
	if planned != 1 || fetched != 0 || errs != 1 || !done {
		t.Fatalf("warm progress = planned %d fetched %d errors %d done %v, want 1/0/1/true", planned, fetched, errs, done)
	}
	if cache.CacheHas(hash) {
		t.Fatal("oversized table installed in the cache")
	}
}

// TestGossipIgnoresOversizedView: a gossip peer reports a dead node
// alive with newer evidence in a view padded past maxBatchBytes; the
// merge ignores the view and the node stays dead.
func TestGossipIgnoresOversizedView(t *testing.T) {
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	node := "http://w1"
	view, err := json.Marshal(map[string]any{
		"nodes": []NodeView{{Addr: node, State: nodeAlive, LastSeen: t0.Add(time.Hour), Incarnation: 1}},
		"pad":   strings.Repeat("x", maxBatchBytes+1),
	})
	if err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(view)
	}))
	defer peer.Close()

	m := newTestMonitor([]string{node}, 1, func() time.Time { return t0 })
	m.gossip = []string{peer.URL}
	m.reportFailure(node)
	if m.alive(node) {
		t.Fatal("node alive after reaching the failure threshold")
	}
	m.gossipAll()
	if m.alive(node) {
		t.Fatal("an oversized gossip view resurrected the node")
	}
}

// TestRouterOversizedAnswerKeepsNodeAlive: every worker accepts the
// submission with a 202 whose body runs past maxBatchBytes. Each answer
// is one proxy error and the router moves on to the next candidate, but
// an answer is not a transport failure: nothing is retried and no node
// steps toward death, under the default retry policy and threshold.
func TestRouterOversizedAnswerKeepsNodeAlive(t *testing.T) {
	big, err := json.Marshal(map[string]string{"id": "w-1", "state": "queued", "pad": strings.Repeat("x", maxBatchBytes+1)})
	if err != nil {
		t.Fatal(err)
	}
	var posts atomic.Int64
	stub := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method != http.MethodPost {
			_, _ = w.Write([]byte("{}"))
			return
		}
		posts.Add(1)
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write(big)
	}
	var nodes []string
	for i := 0; i < 2; i++ {
		s := httptest.NewServer(http.HandlerFunc(stub))
		defer s.Close()
		nodes = append(nodes, s.URL)
	}
	rt, err := NewRouter(RouterConfig{Peers: nodes})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/v1/jobs", tinyFleetSpec())
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		t.Fatalf("oversized acceptance relayed as %d %s", resp.StatusCode, body)
	}
	if got := posts.Load(); got != 2 {
		t.Fatalf("workers saw %d submit POSTs, want one each (2)", got)
	}
	if got := rt.metrics.proxyErrors.Value(); got != 2 {
		t.Fatalf("proxy errors = %d, want 2", got)
	}
	for _, n := range nodes {
		if !rt.mon.alive(n) {
			t.Fatalf("node %s declared dead over an oversized answer", n)
		}
	}
}

// TestRouterUnusableAnswerIs502 covers a submission every candidate
// answered but none usably: an acceptance over maxBatchBytes, or one that
// does not decode. The router answers 502 naming the bad answer, not 503
// "no live workers", for a lone job and for a batch, and every node
// stays alive.
func TestRouterUnusableAnswerIs502(t *testing.T) {
	oversized := []byte(`{"id":"w-1","pad":"` + strings.Repeat("x", maxBatchBytes+1) + `"}`)
	for _, tc := range []struct {
		name   string
		answer []byte
		want   string
	}{
		{"oversized", oversized, "over its"},
		{"undecodable", []byte("not json"), "invalid character"},
	} {
		stub := func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if r.Method != http.MethodPost {
				_, _ = w.Write([]byte("{}"))
				return
			}
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write(tc.answer)
		}
		var nodes []string
		for i := 0; i < 2; i++ {
			s := httptest.NewServer(http.HandlerFunc(stub))
			defer s.Close()
			nodes = append(nodes, s.URL)
		}
		rt, err := NewRouter(RouterConfig{Peers: nodes})
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		defer rt.Close()
		srv := httptest.NewServer(rt.Handler())
		defer srv.Close()

		for _, sub := range []struct {
			path string
			body any
		}{
			{"/v1/jobs", tinyFleetSpec()},
			{"/v1/batches", service.BatchRequest{Jobs: []snnmap.JobSpec{tinyFleetSpec()}}},
		} {
			resp, body := postJSON(t, srv.URL+sub.path, sub.body)
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("%s %s: answered %d %.200s, want 502", tc.name, sub.path, resp.StatusCode, body)
			}
			var eb struct{ Error, Code string }
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("%s %s: error body %.200s: %v", tc.name, sub.path, body, err)
			}
			if !strings.Contains(eb.Error, "answered 202 unusably") || !strings.Contains(eb.Error, tc.want) {
				t.Fatalf("%s %s: error %q does not name the bad answer", tc.name, sub.path, eb.Error)
			}
		}
		for _, n := range nodes {
			if !rt.mon.alive(n) {
				t.Fatalf("%s: node %s declared dead over an unusable answer", tc.name, n)
			}
		}
	}
}
