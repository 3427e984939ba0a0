package main

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
	"time"

	snnmap "repro"
	"repro/internal/fleet"
	"repro/internal/service"
)

// workerAddrs are the workers' listen addresses, one per worker. The
// ring places content addresses by hashing worker URLs, so the addresses
// decide how work splits between workers: with ephemeral ports the owner
// share ranged from 30% to 75% between runs. These fixed loopback
// addresses split content addresses 49/51. A run that cannot listen on
// them fails rather than measure another split.
var workerAddrs = []string{"127.0.0.2:29307", "127.0.0.3:29307"}

// inprocFleet is one router and its workers on loopback listeners,
// configured as `snnmapd -parallel 1 -peers … -self …` workers behind an
// `snnmapd -fleet-route -peers …` router: every setting the deployment
// leaves at its default stays at its default, program tracing included.
// With a tracer, the servers' handlers and the fleet's HTTP clients are
// wrapped to record spans; nothing else changes.
type inprocFleet struct {
	router    *fleet.Router
	routerSrv *httptest.Server
	workers   []*service.Server
	workerSrv []*httptest.Server
	urls      []string
}

func startFleet(tr *tracer) (*inprocFleet, error) {
	f := &inprocFleet{}
	for _, addr := range workerAddrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("worker address (fixed so the ring split is the same in every run): %w", err)
		}
		srv := &httptest.Server{Listener: ln, Config: &http.Server{}}
		f.workerSrv = append(f.workerSrv, srv)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i, srv := range f.workerSrv {
		svc := service.New(service.Config{
			Workers:   1,
			FetchPeer: fleet.NewPeerFetcher(f.urls[i], f.urls, 0, tr.client("fleet", 5*time.Second)),
		})
		f.workers = append(f.workers, svc)
		srv.Config.Handler = tr.handler("service", svc.Handler())
		srv.Start()
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Peers:        f.urls,
		Client:       tr.client("fleet", 30*time.Second),
		StreamClient: tr.client("fleet", 0),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	rt.Start()
	f.router = rt
	f.routerSrv = httptest.NewServer(tr.handler("fleet", rt.Handler()))
	return f, nil
}

// close stops the router, then drains and stops the workers.
func (f *inprocFleet) close() {
	if f.routerSrv != nil {
		f.routerSrv.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for i, srv := range f.workerSrv {
		srv.Close()
		if i < len(f.workers) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = f.workers[i].Drain(ctx) // past the deadline running jobs are canceled, which is all close needs
			cancel()
		}
	}
}

// fleetSnapshot is the workers' counters at one moment: their sum, and
// the executed count of each worker.
type fleetSnapshot struct {
	sum      service.Stats
	executed []int64
}

func (f *inprocFleet) snapshot() fleetSnapshot {
	var snap fleetSnapshot
	sum := &snap.sum
	for _, w := range f.workers {
		s := w.Snapshot()
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.PoolHits += s.PoolHits
		sum.PoolMisses += s.PoolMisses
		sum.PoolBuilds += s.PoolBuilds
		sum.PeerHits += s.PeerHits
		sum.PeerMisses += s.PeerMisses
		sum.Executed += s.Executed
		sum.Shed += s.Shed
		snap.executed = append(snap.executed, s.Executed)
	}
	return snap
}

// workerStatuses lists every job each worker holds, keyed by content
// address. The router keeps the status it last relayed, which for a job
// awaited over its event stream is the submission's; the workers hold
// the timestamps.
func (f *inprocFleet) workerStatuses(ctx context.Context) (map[string]service.JobStatus, error) {
	out := map[string]service.JobStatus{}
	for _, url := range f.urls {
		c := newConn(url, nil)
		code, b, err := c.call(ctx, http.MethodGet, "/v1/jobs", nil, "list", 0)
		c.close()
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("listing %s: HTTP %d", url, code)
		}
		var list struct {
			Jobs []service.JobStatus `json:"jobs"`
		}
		if err := json.Unmarshal(b, &list); err != nil {
			return nil, fmt.Errorf("listing %s: %w", url, err)
		}
		for _, st := range list.Jobs {
			if !st.Cached {
				out[st.Hash] = st
			}
		}
	}
	return out, nil
}

// conn is one client connection to a server of the fleet: requests on it
// run one at a time over a single keep-alive TCP connection.
type conn struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newConn(base string, tr *tracer) *conn {
	return &conn{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// call sends one request and reads the whole response, recording a
// client.<op> span under parent when tracing.
func (c *conn) call(ctx context.Context, method, path string, body []byte, op string, parent int64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := c.tr.newID()
	if c.tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now().UnixNano()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.add(span{ID: id, Parent: parent, Job: -1, Name: "client." + op, Start: start, End: time.Now().UnixNano(), Code: resp.StatusCode})
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}

func (c *conn) submit(ctx context.Context, spec snnmap.JobSpec, parent int64) (service.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobStatus{}, err
	}
	code, b, err := c.call(ctx, http.MethodPost, "/v1/jobs", body, "submit", parent)
	if err != nil {
		return service.JobStatus{}, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return service.JobStatus{}, fmt.Errorf("submit: HTTP %d: %s", code, strings.TrimSpace(string(b)))
	}
	var st service.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return service.JobStatus{}, fmt.Errorf("submit: decoding status: %w", err)
	}
	return st, nil
}

func (c *conn) status(ctx context.Context, id string, parent int64) (service.JobStatus, error) {
	code, b, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, "status", parent)
	if err != nil {
		return service.JobStatus{}, err
	}
	if code != http.StatusOK {
		return service.JobStatus{}, fmt.Errorf("status %s: HTTP %d: %s", id, code, strings.TrimSpace(string(b)))
	}
	var st service.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return service.JobStatus{}, fmt.Errorf("status %s: %w", id, err)
	}
	return st, nil
}

// result fetches a done job's table as CSV.
func (c *conn) result(ctx context.Context, id string, parent int64) ([]byte, error) {
	code, b, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/result?format=csv", nil, "result", parent)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result %s: HTTP %d: %s", id, code, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// await reads the job's event stream to its end and returns the terminal
// state it reported.
func (c *conn) await(ctx context.Context, id string, parent int64) (service.JobState, error) {
	code, b, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil, "events", parent)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("events %s: HTTP %d", id, code)
	}
	for _, st := range []service.JobState{service.JobDone, service.JobFailed, service.JobCanceled} {
		if bytes.Contains(b, []byte(`"state":"`+string(st)+`"`)) {
			return st, nil
		}
	}
	return "", fmt.Errorf("events %s: stream ended without a terminal state", id)
}
