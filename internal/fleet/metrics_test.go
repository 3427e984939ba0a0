package fleet

import (
	"bytes"
	"net/http"
	"os"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestRouterMetricsGolden pins the router's full exposition: placements
// over two nodes (label values sorted, one count above a million still
// rendered as a plain integer), every counter non-zero, and both
// read-time gauges.
func TestRouterMetricsGolden(t *testing.T) {
	m := newRouterMetrics(func() int64 { return 9 }, func() []NodeView {
		return []NodeView{
			{Addr: "http://127.0.0.1:7301", State: nodeAlive},
			{Addr: "http://127.0.0.1:7302", State: nodeDead},
			{Addr: "http://127.0.0.1:7303", State: nodeAlive},
		}
	})
	m.routed.Add("http://127.0.0.1:7302", 5)
	m.routed.Add("http://127.0.0.1:7301", 1_000_000)
	m.spills.Add(2)
	m.requeues.Add(3)
	m.proxyErrors.Add(4)
	m.batches.Add(5)
	m.replicas.Add(6)
	m.redirects.Add(7)

	var b bytes.Buffer
	if err := m.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "router_metrics.prom.golden", b.Bytes())
}

// TestWarmerMetricsGolden pins the warmer's exposition after a finished
// warm pass.
func TestWarmerMetricsGolden(t *testing.T) {
	w := NewWarmer(WarmerConfig{Self: "http://127.0.0.1:7304"})
	w.planned.Store(1_000_001)
	w.fetched.Store(1_000_000)
	w.errors.Store(1)
	w.done.Store(true)
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "warmer_metrics.prom.golden", b.Bytes())
}

// TestRouterNotFoundMatchesWorker pins the router's 404 to the bytes of
// the worker's golden error body: both sides of the fleet speak one
// error shape.
func TestRouterNotFoundMatchesWorker(t *testing.T) {
	workers := startWorkers(t, 1, func(int) service.Config { return service.Config{Workers: 1} }, false, nil)
	_, base := startRouter(t, workers)
	resp, body := getBody(t, base+"/v1/jobs/job-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("router GET unknown job = %d, want 404", resp.StatusCode)
	}
	want, err := os.ReadFile("../service/testdata/error_not_found.json.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("router 404 body drifted from the worker's:\n got: %s\nwant: %s", body, want)
	}
}
