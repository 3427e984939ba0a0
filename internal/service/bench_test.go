package service

import (
	"context"
	"encoding/json"

	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	snnmap "repro"
)

// benchSubmitAndWait drives one job through the handler layer to a
// terminal state and fails the benchmark on anything but done.
func benchSubmitAndWait(b *testing.B, h http.Handler, spec snnmap.JobSpec) {
	b.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(string(body))))
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		b.Fatalf("submit = %d %s", rec.Code, rec.Body.String())
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		b.Fatal(err)
	}
	for !st.State.Terminal() {
		time.Sleep(200 * time.Microsecond)
		r := httptest.NewRecorder()
		h.ServeHTTP(r, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil))
		if err := json.Unmarshal(r.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
	}
	if st.State != JobDone {
		b.Fatalf("job %s (%s)", st.State, st.Error)
	}
}

// BenchmarkServiceWarmVsCold measures the three service temperatures on
// one job shape:
//
//   - cold: a fresh daemon per job — full session construction plus the
//     run (what every request would pay without the pools);
//   - warm-session: one daemon, unique canonical specs sharing a session
//     key — the run on a warm session (pool hit, cache miss);
//   - cached: one daemon, identical canonical spec — the
//     content-addressed replay path (no pipeline at all).
func BenchmarkServiceWarmVsCold(b *testing.B) {
	spec := snnmap.JobSpec{
		App:        "gen:modular:n=96,dur=150,seed=5",
		Arch:       "tree",
		Techniques: []string{"greedy"},
	}
	drain := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Drain(ctx)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := New(Config{Workers: 1})
			benchSubmitAndWait(b, s.Handler(), spec)
			drain(s)
		}
	})

	b.Run("warm-session", func(b *testing.B) {
		s := New(Config{Workers: 1, CacheCap: 1 << 20})
		defer drain(s)
		h := s.Handler()
		benchSubmitAndWait(b, h, spec) // prime the session
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Iterations stay outside the session key, so each job is a
			// cache miss running on the warm session.
			varied := spec
			varied.Techniques = []string{"pso"}
			varied.SwarmSize = 4
			varied.Iterations = 1 + i
			benchSubmitAndWait(b, h, varied)
		}
		if snap := s.Snapshot(); snap.PoolBuilds != 1 {
			b.Fatalf("warm-session benchmark built %d sessions", snap.PoolBuilds)
		}
	})

	b.Run("cached", func(b *testing.B) {
		s := New(Config{Workers: 1})
		defer drain(s)
		h := s.Handler()
		benchSubmitAndWait(b, h, spec) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSubmitAndWait(b, h, spec)
		}
		if snap := s.Snapshot(); snap.CacheHits < int64(b.N) {
			b.Fatalf("cached benchmark hit %d times, want ≥ %d", snap.CacheHits, b.N)
		}
	})
}

// BenchmarkTracingOverhead runs the same warm-session job shape with
// the span recorder off and on. The disabled lane is the one that must
// stay in the noise against the pre-tracing seed (every span handle is
// nil and every obs call returns immediately); the enabled lane prices
// what -tracing=true actually costs per job.
func BenchmarkTracingOverhead(b *testing.B) {
	spec := snnmap.JobSpec{
		App:        "gen:modular:n=96,dur=150,seed=5",
		Arch:       "tree",
		Techniques: []string{"greedy"},
	}
	for _, mode := range []struct {
		name     string
		disabled bool
	}{
		{"disabled", true},
		{"enabled", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := New(Config{Workers: 1, CacheCap: 1 << 20, TracingDisabled: mode.disabled})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				_ = s.Drain(ctx)
			}()
			h := s.Handler()
			benchSubmitAndWait(b, h, spec) // prime the session
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				varied := spec
				varied.Techniques = []string{"pso"}
				varied.SwarmSize = 4
				varied.Iterations = 1 + i // unique spec: cache miss, warm session
				benchSubmitAndWait(b, h, varied)
			}
		})
	}
}

// BenchmarkServiceBatch measures the grouped batch path: four unique
// jobs sharing one session key admitted as a single /v1/batches call,
// executed back to back on one warm session. Comparing one op here
// against four warm-session submits above isolates the batch overhead
// (admission, grouping, status merge).
func BenchmarkServiceBatch(b *testing.B) {
	spec := snnmap.JobSpec{
		App:        "gen:modular:n=96,dur=150,seed=5",
		Arch:       "tree",
		Techniques: []string{"greedy"},
	}
	s := New(Config{Workers: 1, CacheCap: 1 << 20})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	h := s.Handler()
	benchSubmitAndWait(b, h, spec) // prime the session
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs := make([]snnmap.JobSpec, 4)
		for j := range specs {
			varied := spec
			varied.Techniques = []string{"pso"}
			varied.SwarmSize = 4
			varied.Iterations = 1 + i*len(specs) + j // unique spec, same session key
			specs[j] = varied
		}
		body, err := json.Marshal(map[string]any{"jobs": specs})
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batches", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			b.Fatalf("batch = %d %s", rec.Code, rec.Body.String())
		}
		var resp struct {
			Jobs []JobStatus `json:"jobs"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		for _, st := range resp.Jobs {
			for !st.State.Terminal() {
				time.Sleep(200 * time.Microsecond)
				r := httptest.NewRecorder()
				h.ServeHTTP(r, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID, nil))
				if err := json.Unmarshal(r.Body.Bytes(), &st); err != nil {
					b.Fatal(err)
				}
			}
			if st.State != JobDone {
				b.Fatalf("batch job %s (%s)", st.State, st.Error)
			}
		}
	}
	b.StopTimer()
	if snap := s.Snapshot(); snap.PoolBuilds != 1 {
		b.Fatalf("batch benchmark built %d sessions, want 1", snap.PoolBuilds)
	}
}
