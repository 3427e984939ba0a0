package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	snnmap "repro"
	"repro/internal/fleet/resilience"
	"repro/internal/obs"
)

// CacheStore is the slice of the worker's result cache the warmer
// needs; *service.Server implements it.
type CacheStore interface {
	CacheHas(hash string) bool
	CachePut(hash string, table *snnmap.Table)
}

// WarmerConfig parameterizes a join-time cache warmer.
type WarmerConfig struct {
	// Self is this worker's own advertised base URL.
	Self string
	// Peers is the full fleet membership (self included or not — self is
	// always excluded from pulls).
	Peers []string
	// VNodes must match the fleet's ring configuration (<=0 → 64).
	VNodes int
	// Rate bounds the transfer to this many entries per second (default
	// 16) — warming rides the same wire as live traffic and must never
	// crowd it out.
	Rate int
	// Limit caps the hashes requested from each peer's index (default
	// 512, the server-side bound).
	Limit int
	// Cache is the local result cache to warm.
	Cache CacheStore
	// Client issues the index and fetch requests (default 5s timeout).
	Client *http.Client
}

// Warmer pre-pulls the cache entries a joining worker now owns. On ring
// join, keys move from their previous owners to the new member; until
// its cache warms, every repeat of those keys is a peer hop or a
// recompute. The warmer closes that window proactively: it asks each
// peer for its hot cache index, keeps the hashes the post-join ring
// assigns to this node, and pulls the missing tables from the peers
// that reported them — bounded-rate, in the background, observable via
// the snnmapd_cache_warm_* metrics families.
type Warmer struct {
	cfg   WarmerConfig
	ring  *Ring
	self  string
	peers []string
	retry resilience.Policy

	planned, fetched, errors atomic.Int64
	done                     atomic.Bool
}

// NewWarmer builds a warmer; Run starts the transfer.
func NewWarmer(cfg WarmerConfig) *Warmer {
	if cfg.Rate <= 0 {
		cfg.Rate = 16
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 512
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	self := normalizeBase(cfg.Self)
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range normalizeBases(cfg.Peers) {
		if p != self {
			peers = append(peers, p)
		}
	}
	ring := NewRing(cfg.VNodes, peers...)
	ring.Add(self)
	return &Warmer{cfg: cfg, ring: ring, self: self, peers: peers,
		retry: resilience.Policy{MaxAttempts: 2, BaseDelay: 25 * time.Millisecond, MaxDelay: 100 * time.Millisecond}}
}

// RegisterMetrics declares the snnmapd_cache_warm_* families on reg —
// the worker's registry (service.Server.Metrics), so warm progress
// rides the worker's /metrics.
func (w *Warmer) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("snnmapd_cache_warm_planned", "Cache entries the join warmer planned to pull.", w.planned.Load)
	reg.CounterFunc("snnmapd_cache_warm_fetched_total", "Cache entries pulled by the join warmer.", w.fetched.Load)
	reg.CounterFunc("snnmapd_cache_warm_errors_total", "Join-warmer pulls that failed after retries.", w.errors.Load)
	reg.GaugeFunc("snnmapd_cache_warm_done", "Whether the join warm pass completed (1) or is still running (0).", func() int64 {
		if w.done.Load() {
			return 1
		}
		return 0
	})
}

// Run executes one warm pass and returns when it completes or ctx
// fires. Call it in a goroutine at worker startup — submissions served
// while it runs simply miss the local tier and fall through to the
// peer-fetch path, so warming is never on any request's critical path.
func (w *Warmer) Run(ctx context.Context) {
	defer w.done.Store(true)
	if w.cfg.Cache == nil {
		return
	}

	// Plan: every peer-reported hash the post-join ring assigns to this
	// node and the local cache lacks, remembered with the peer that has
	// it (first reporter wins — any holder's bytes are identical).
	type pull struct{ hash, peer string }
	var plan []pull
	seen := map[string]struct{}{}
	for _, peer := range w.peers {
		rep, _ := call{method: http.MethodGet, url: fmt.Sprintf("%s/v1/cache?limit=%d", peer, w.cfg.Limit),
			limit: maxSpecBytes}.do(ctx, w.cfg.Client)
		var idx struct {
			Hashes []string `json:"hashes"`
		}
		if !rep.decode(&idx) {
			continue // best-effort: an unreadable index lists nothing
		}
		for _, h := range idx.Hashes {
			if _, dup := seen[h]; dup {
				continue
			}
			seen[h] = struct{}{}
			if owner, ok := w.ring.Owner(h); !ok || owner != w.self {
				continue
			}
			if w.cfg.Cache.CacheHas(h) {
				continue
			}
			plan = append(plan, pull{hash: h, peer: peer})
		}
	}
	w.planned.Store(int64(len(plan)))

	// Transfer, one entry per rate tick (worker.warm fires per entry). A
	// ticker (not a sleep-per-item loop) keeps the bound exact however
	// long individual fetches take.
	interval := time.Second / time.Duration(w.cfg.Rate)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i, p := range plan {
		if i > 0 {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
		table, err := fetchTable(ctx, w.cfg.Client, w.retry, fpWarm, false, p.peer, p.hash)
		if err != nil {
			w.errors.Add(1)
			continue
		}
		w.cfg.Cache.CachePut(p.hash, table)
		w.fetched.Add(1)
	}
}

// Progress snapshots the warm pass: entries planned, fetched, failed,
// and whether the pass finished.
func (w *Warmer) Progress() (planned, fetched, errors int64, done bool) {
	return w.planned.Load(), w.fetched.Load(), w.errors.Load(), w.done.Load()
}
