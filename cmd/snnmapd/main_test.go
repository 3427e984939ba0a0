package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "snnmapd ") || !strings.Contains(out.String(), "go1") {
		t.Fatalf("version output %q", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	err := run([]string{"-no-such-flag"}, io.Discard, nil)
	if !errors.Is(err, errBadFlags) {
		t.Fatalf("bad flag error = %v", err)
	}
	if err := run([]string{"-h"}, io.Discard, nil); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h error = %v", err)
	}
}

// TestServerTimeouts pins the slow-client bounds every daemon listener
// (job API, fleet router, pprof) is built with: header and idle timeouts
// set, and no write timeout, which would cut SSE event streams.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want positive %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want positive %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want 0 so SSE streams stay open", srv.WriteTimeout)
	}
}

// TestBootSubmitAndGracefulShutdown boots the daemon on an ephemeral
// port, runs one tiny job end to end over a real socket, then drains it
// with SIGTERM — the in-process twin of the CI smoke job.
func TestBootSubmitAndGracefulShutdown(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-parallel", "1"}, io.Discard, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	spec := `{"app":"gen:modular:n=48,dur=120,seed=5","techniques":["greedy"]}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	decode := func(b []byte) {
		t.Helper()
		st = struct {
			ID    string `json:"id"`
			State string `json:"state"`
			Error string `json:"error"`
		}{}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decoding %q: %v", b, err)
		}
	}
	decode(body)
	deadline := time.Now().Add(60 * time.Second)
	for st.State != "done" && st.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		decode(b)
	}
	if st.State != "done" {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}

	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(csv, []byte("# reports")) {
		t.Fatalf("result = %d %q", resp.StatusCode, csv)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestFleetRouterBoot boots a worker and a router over it in-process,
// runs one job through the router end to end, and drains both with
// SIGTERM — the in-process twin of the CI fleet-smoke job.
func TestFleetRouterBoot(t *testing.T) {
	boot := func(args []string) (string, chan error) {
		t.Helper()
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- run(args, io.Discard, ready) }()
		select {
		case addr := <-ready:
			return addr, done
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never came up")
		}
		return "", nil
	}
	worker, workerDone := boot([]string{"-addr", "127.0.0.1:0", "-parallel", "1"})
	router, routerDone := boot([]string{"-addr", "127.0.0.1:0", "-fleet-route",
		"-peers", worker, "-probe-interval", "100ms"})
	base := "http://" + router

	resp, err := http.Get(base + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	version, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(version), "fleet-router") {
		t.Fatalf("router version = %s", version)
	}

	spec := `{"app":"gen:modular:n=48,dur=120,seed=5","techniques":["greedy"]}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via router = %d %s", resp.StatusCode, body)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "fleet-") {
		t.Fatalf("router job ID %q", st.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st.State != "done" && st.State != "failed" && st.State != "canceled" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decoding %q: %v", b, err)
		}
	}
	if st.State != "done" {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}
	resp, err = http.Get(base + "/v1/jobs/" + st.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(csv, []byte("# reports")) {
		t.Fatalf("result via router = %d %q", resp.StatusCode, csv)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "snnmapd_fleet_routed_total") {
		t.Fatalf("router metrics missing fleet families:\n%s", metrics)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, done := range []chan error{routerDone, workerDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("daemon did not stop after SIGTERM")
		}
	}
}
