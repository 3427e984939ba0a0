package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeRuns writes one untraced result file per value of job_p50_ms, with
// the other end-to-end metrics fixed, starting at the given offset so
// parent and change runs interleave.
func writeRuns(t *testing.T, dir string, p50 []float64, offset time.Duration) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(offset)
	for i, v := range p50 {
		res := &result{
			summary: summary{Correct: true, Attempted: 10, Metrics: map[string]metricValue{
				"setup_s":          {0.5, "s"},
				"jobs_per_s":       {20, "1/s"},
				"job_p50_ms":       {v, "ms"},
				"job_p95_ms":       {100, "ms"},
				"alloc_mb_per_job": {50, "MB"},
			}},
			Workload: "replay-heavy",
			Started:  base.Add(time.Duration(i) * time.Minute),
		}
		if err := writeResult(filepath.Join(dir, fmt.Sprintf("run%d.json", i)), res); err != nil {
			t.Fatal(err)
		}
	}
	// A traced run is ignored: its metrics are per-layer.
	traced := &result{Workload: "replay-heavy", Trace: true, Started: base}
	if err := writeResult(filepath.Join(dir, "traced.json"), traced); err != nil {
		t.Fatal(err)
	}
}

func specPath(t *testing.T) string {
	t.Helper()
	path := filepath.Join("..", "BENCHMARK.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("BENCHMARK.json not found next to bench/")
	}
	return path
}

func TestCompare(t *testing.T) {
	steady := []float64{50, 51, 49, 50, 50.5, 49.5, 50, 51, 49, 50}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name            string
		parent, change  []float64
		claim           string
		wantOK          bool
		wantOutputParts []string
	}{
		{"unchanged", steady, steady, "", true, []string{"job_p50_ms", "ok", "change/parent 1.0000"}},
		{"regressed", steady, scale(steady, 1.3), "", false, []string{"REGRESSED"}},
		{"noisy", []float64{30, 70, 40, 60, 50, 35, 65, 45, 55, 50}, scale(steady, 1.3), "", true, []string{"unresolved"}},
		{"gain claimed and met", steady, scale(steady, 0.8), "job_p50_ms@replay-heavy", true, []string{"claim job_p50_ms@replay-heavy: met", "won 10 of 10"}},
		{"gain on too few pairs", steady[:8], scale(steady[:8], 0.8), "job_p50_ms@replay-heavy", false, []string{"too few pairs"}},
		{"gain not won often enough", steady, append(scale(steady[:8], 0.8), 52, 53), "job_p50_ms@replay-heavy", false, []string{"too few wins"}},
		{"gain inside the parent's spread", steady, scale(steady, 0.99), "job_p50_ms@replay-heavy", false, []string{"within the parent's IQR"}},
	} {
		dir := t.TempDir()
		writeRuns(t, filepath.Join(dir, "parent"), tc.parent, 0)
		writeRuns(t, filepath.Join(dir, "change"), tc.change, 30*time.Second)
		var out bytes.Buffer
		ok, err := compare(specPath(t), filepath.Join(dir, "parent"), filepath.Join(dir, "change"), tc.claim, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.wantOK {
			t.Errorf("%s: ok=%v, want %v\n%s", tc.name, ok, tc.wantOK, out.String())
		}
		for _, part := range tc.wantOutputParts {
			if !strings.Contains(out.String(), part) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, part, out.String())
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}
