// Command snnmapd is the mapping-as-a-service daemon: a long-lived HTTP
// server accepting mapping jobs over JSON and executing them on a
// bounded worker pool with warm-session pooling and content-addressed
// result caching (see internal/service).
//
//	snnmapd -addr 127.0.0.1:8080
//
// Submit a job, stream its progress, fetch the result:
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"app":"gen:smallworld:n=512,seed=7","arch":"mesh","techniques":["greedy","pso"]}'
//	curl -N localhost:8080/v1/jobs/job-000001/events
//	curl -s 'localhost:8080/v1/jobs/job-000001/result?format=csv'
//
// Operational surface: GET /healthz (flips to 503 while draining),
// GET /metrics (Prometheus text), GET /v1/version, and per-job
// distributed traces at GET /v1/jobs/{id}/trace (disable recording
// with -tracing=false). -debug-addr serves net/http/pprof on a
// separate, opt-in listener. Logs are structured (log/slog); records
// created under a traced request carry trace_id/span_id. SIGINT/SIGTERM
// triggers a graceful drain: new jobs are rejected, accepted jobs finish
// (bounded by -drain-timeout, after which running jobs are canceled —
// the pipeline observes cancellation within one replay event batch).
//
// Fleet modes (see internal/fleet):
//
//	snnmapd -fleet-route -peers 127.0.0.1:8081,127.0.0.1:8082   # router
//	snnmapd -addr :8081 -peers :8081,:8082 -self 127.0.0.1:8081 # worker
//
// A router places jobs on a consistent-hash ring over the peers and
// proxies the job API unchanged; a worker given -peers and -self
// resolves local result-cache misses from the content address's ring
// owner before recomputing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only when -debug-addr is set
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	// Structured logging from the first line: the obs handler stamps
	// trace_id/span_id onto any record whose context carries a span, so
	// daemon logs join against /v1/jobs/{id}/trace output.
	slog.SetDefault(slog.New(obs.NewLogHandler(os.Stderr, slog.LevelInfo)))
	switch err := run(os.Args[1:], os.Stdout, nil); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// -h/-help: the FlagSet already printed usage; exit 0 like
		// flag.ExitOnError would.
	case errors.Is(err, errBadFlags):
		// The FlagSet already reported the offending flag and usage.
		os.Exit(2)
	default:
		slog.Error("snnmapd failed", "error", err)
		os.Exit(1)
	}
}

// errBadFlags marks argument errors the FlagSet has already printed, so
// main does not report them a second time.
var errBadFlags = errors.New("invalid arguments")

// run executes the daemon against an argument vector — the testable core
// main wraps. When ready is non-nil, the bound address is sent to it
// once the listener is up (tests and the CI smoke script use the log
// line instead).
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("snnmapd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free one)")
		workers      = fs.Int("parallel", 0, "job executor worker pool size (0 = GOMAXPROCS)")
		queueDepth   = fs.Int("queue", 64, "accepted-job backlog bound; submissions beyond it get 503")
		jobTimeout   = fs.Duration("job-timeout", 0, "per-job wall clock limit, e.g. 90s (0 = none)")
		sessions     = fs.Int("sessions", 8, "warm-session pool capacity (pipelines kept hot, LRU)")
		cacheCap     = fs.Int("cache", 256, "result cache capacity (tables kept, LRU)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before running jobs are canceled")
		version      = fs.Bool("version", false, "print version and exit")

		fleetRoute = fs.Bool("fleet-route", false, "run as a fleet router over -peers instead of executing jobs")
		peers      = fs.String("peers", "", "comma-separated worker base URLs (router: the fleet; worker: enables peer cache fetch)")
		self       = fs.String("self", "", "this node's advertised base URL (worker: enables peer cache fetch + join warming; router: enables HA route replication)")
		vnodes     = fs.Int("vnodes", 0, "consistent-hash virtual nodes per fleet member (0 = default 64; must match fleet-wide)")
		probeIval  = fs.Duration("probe-interval", 2*time.Second, "router health-probe cadence")
		failThresh = fs.Int("fail-threshold", 2, "consecutive failed probes before a worker is declared dead and its jobs requeued")
		gossip     = fs.String("gossip", "", "comma-separated peer router base URLs whose /v1/fleet views and route tables are merged (router mode)")
		warmRate   = fs.Int("warm-rate", 16, "join-time cache warming rate bound, entries/second (worker mode with -peers and -self; 0 disables)")
		warmLimit  = fs.Int("warm-limit", 512, "max cache-index entries requested per peer by the join warmer")

		tracing   = fs.Bool("tracing", true, "record per-job span trees, served at GET /v1/jobs/{id}/trace")
		traceCap  = fs.Int("trace-cap", 0, "span recorder ring capacity, finished spans kept (0 = default 4096)")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this address (empty = profiling off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errBadFlags, err)
	}
	if *version {
		fmt.Fprintf(stdout, "snnmapd %s\n", buildinfo.Read())
		return nil
	}
	if *debugAddr != "" {
		// Opt-in profiling surface, on its own listener so the pprof
		// handlers never ride the public job API address.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		slog.Info("pprof debug server listening", "url", "http://"+dln.Addr().String()+"/debug/pprof/")
		go func() { _ = newServer(http.DefaultServeMux).Serve(dln) }()
	}

	if *fleetRoute {
		// The router is stateless (workers hold results), so shutdown is
		// just closing the listener and the health prober.
		rt, err := fleet.NewRouter(fleet.RouterConfig{
			Peers:           splitList(*peers),
			Self:            *self,
			GossipPeers:     splitList(*gossip),
			VNodes:          *vnodes,
			ProbeInterval:   *probeIval,
			FailThreshold:   *failThresh,
			TracingDisabled: !*tracing,
			TraceCap:        *traceCap,
			Log:             slog.Default(),
		})
		if err != nil {
			return err
		}
		rt.Start()
		defer rt.Close()
		return serve(rt.Handler(), *addr, ready, nil, "fleet router listening", "workers", len(splitList(*peers)))
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		JobTimeout:      *jobTimeout,
		SessionCap:      *sessions,
		CacheCap:        *cacheCap,
		TracingDisabled: !*tracing,
		TraceCap:        *traceCap,
		Log:             slog.Default(),
	}
	fleetAttached := *peers != "" && *self != ""
	if fleetAttached {
		// Fleet-attached worker: local result-cache misses consult the
		// content address's ring owner before recomputing.
		cfg.FetchPeer = fleet.NewPeerFetcher(*self, splitList(*peers), *vnodes, nil)
		slog.Info("fleet peer cache enabled", "self", *self, "peers", len(splitList(*peers)))
	}
	svc := service.New(cfg)
	if fleetAttached && *warmRate > 0 {
		// Join-time cache warming: pull the entries the post-join ring
		// assigns to this node from their previous owners, rate-bounded,
		// in the background. Progress rides the worker's /metrics.
		warmer := fleet.NewWarmer(fleet.WarmerConfig{
			Self:   *self,
			Peers:  splitList(*peers),
			VNodes: *vnodes,
			Rate:   *warmRate,
			Limit:  *warmLimit,
			Cache:  svc,
		})
		warmer.RegisterMetrics(svc.Metrics())
		go func() {
			warmer.Run(context.Background())
			planned, fetched, errs, _ := warmer.Progress()
			slog.Info("cache warm pass done", "fetched", fetched, "planned", planned, "errors", errs)
		}()
	}
	return serve(svc.Handler(), *addr, ready, func() {
		slog.Info("signal received; draining", "budget", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := svc.Drain(dctx); err != nil {
			slog.Warn("drain deadline expired; running jobs canceled", "error", err)
		}
		slog.Info("drained")
	}, "listening")
}

// serve runs h on addr until SIGINT or SIGTERM, then runs drain (when
// set) and shuts the HTTP server down. msg and attrs make the log line
// announcing the listener; ready, when non-nil, gets the bound address.
func serve(h http.Handler, addr string, ready chan<- string, drain func(), msg string, attrs ...any) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	slog.Info(msg, append([]any{"url", "http://" + ln.Addr().String()}, attrs...)...)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	httpSrv := newServer(h)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
	}
	if drain != nil {
		drain()
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	slog.Info("stopped; bye")
	return nil
}

// Timeouts of every HTTP server the daemon runs. A client gets
// readHeaderTimeout to send its request headers and a keep-alive
// connection is closed after idleTimeout without a request, so slow or
// idle clients cannot hold connections open indefinitely. There is
// deliberately no WriteTimeout: it would cut the long-lived SSE streams
// of GET /v1/jobs/{id}/events.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer wraps h in an http.Server carrying the daemon's timeouts.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
