package fleet

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	snnmap "repro"
	"repro/internal/service"
)

// dropTransport delivers every request but loses the answer to the
// first POST on each armed path: the worker accepted, the router sees a
// connection failure — the case the idempotency key exists for.
type dropTransport struct {
	mu   sync.Mutex
	drop map[string]bool // path → the next POST answer is lost
}

func (d *dropTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost {
		return resp, err
	}
	d.mu.Lock()
	lose := d.drop[req.URL.Path]
	d.drop[req.URL.Path] = false
	d.mu.Unlock()
	if !lose {
		return resp, nil
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, errors.New("connection reset after the worker answered")
}

// TestRouterRetryAfterDroppedResponse pins retry safety for both
// submission shapes: the router's first submit RPC reaches the worker,
// its answer is lost, and the retry — under the same idempotency key —
// is answered with the jobs the first attempt created. The worker ends
// with exactly one set of jobs.
func TestRouterRetryAfterDroppedResponse(t *testing.T) {
	specs := make([]snnmap.JobSpec, 0, 3)
	for seed := int64(1); seed <= 2; seed++ {
		s := tinyFleetSpec()
		s.Seed = seed
		specs = append(specs, s)
	}
	specs = append(specs, specs[0]) // a duplicate repeats its job at its own index

	for _, tc := range []struct {
		name, path string
		body       any
		unique     int // jobs one submission creates on the worker
	}{
		{"job", "/v1/jobs", specs[0], 1},
		{"batch", "/v1/batches", service.BatchRequest{Jobs: specs}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := startWorkers(t, 1, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
			drop := &dropTransport{drop: map[string]bool{tc.path: true}}
			rt, err := NewRouter(RouterConfig{
				Peers:         workerURLs(workers),
				FailThreshold: 10,
				Client:        &http.Client{Transport: drop},
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(rt.Handler())
			defer srv.Close()

			resp, body := postJSON(t, srv.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit with a lost first answer = %d %s", resp.StatusCode, body)
			}
			drop.mu.Lock()
			pending := drop.drop[tc.path]
			drop.mu.Unlock()
			if pending {
				t.Fatal("the first answer was never dropped")
			}
			_, list := getBody(t, workers[0].url+"/v1/jobs")
			var jobs struct {
				Jobs []service.JobStatus `json:"jobs"`
			}
			if err := json.Unmarshal(list, &jobs); err != nil {
				t.Fatal(err)
			}
			if len(jobs.Jobs) != tc.unique {
				t.Fatalf("worker holds %d jobs after a retried submit, want %d", len(jobs.Jobs), tc.unique)
			}
			if got := workers[0].svc.Snapshot().IdemReplays; got != 1 {
				t.Fatalf("worker idempotent replays = %d, want 1", got)
			}
		})
	}
}

// TestRouterRestartAdmitsFreshJobs: a restarted router (or a second
// tokenless one) reissues the same job IDs and batch sequence numbers,
// while the worker's key memory outlives it. Resubmitting the content
// of jobs the first router canceled must create fresh jobs, never
// replay the canceled ones.
func TestRouterRestartAdmitsFreshJobs(t *testing.T) {
	specs := make([]snnmap.JobSpec, 0, 2)
	for seed := int64(1); seed <= 2; seed++ {
		s := slowFleetSpec()
		s.Seed = seed
		specs = append(specs, s)
	}
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"job", "/v1/jobs", specs[0]},
		{"batch", "/v1/batches", service.BatchRequest{Jobs: specs}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			workers := startWorkers(t, 1, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
			for run := 1; run <= 2; run++ {
				_, base := startRouter(t, workers) // a new process: its sequences start over
				resp, body := postJSON(t, base+tc.path, tc.body)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
					t.Fatalf("run %d: submit = %d %s", run, resp.StatusCode, body)
				}
				var sts []service.JobStatus
				if tc.path == "/v1/jobs" {
					var st service.JobStatus
					if err := json.Unmarshal(body, &st); err != nil {
						t.Fatal(err)
					}
					sts = []service.JobStatus{st}
				} else {
					var br service.BatchResponse
					if err := json.Unmarshal(body, &br); err != nil {
						t.Fatal(err)
					}
					sts = br.Jobs
				}
				for _, st := range sts {
					if st.State == service.JobCanceled {
						t.Fatalf("run %d: job %s answered canceled: an earlier router's job was replayed", run, st.ID)
					}
					req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			if got := workers[0].svc.Snapshot().IdemReplays; got != 0 {
				t.Fatalf("worker idempotent replays = %d across routers, want 0", got)
			}
		})
	}
}
