package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	snnmap "repro"
	"repro/internal/fleet/resilience"
)

// NewPeerFetcher builds the worker-side second tier of the result
// cache: a service.Config.FetchPeer hook that, on a local cache miss,
// asks the ring owner of the content address for its cached table via
// GET /v1/cache/{hash}. self is this worker's own advertised address
// (skipped — its cache was the first tier), peers the full fleet
// membership, vnodes the ring's virtual-point count (must match the
// router's so both agree on ownership; <=0 picks the default 64).
//
// The lookup is deliberately one hop and best-effort: a fetch that
// fails for any reason (owner down, not cached there either, slow
// network) is a miss and the worker recomputes — the fetch must never
// cost more than the compute it tries to save, so it is bounded by a
// short timeout.
func NewPeerFetcher(self string, peers []string, vnodes int, client *http.Client) func(ctx context.Context, hash string) (*snnmap.Table, bool) {
	self = normalizeBase(self)
	ring := NewRing(vnodes, normalizeBases(peers)...)
	ring.Add(self)
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	// One fast retry absorbs a transient connection failure; anything
	// beyond that and the recompute is the better bet.
	retry := resilience.Policy{MaxAttempts: 2, BaseDelay: 25 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	return func(ctx context.Context, hash string) (*snnmap.Table, bool) {
		owner, ok := ring.Owner(hash)
		if !ok || owner == self {
			// We are the owner (or alone): the local tier already missed.
			return nil, false
		}
		// The submitter's deadline bounds the fetch too: a peer hop must
		// never outlive the request it is trying to speed up.
		table, err := fetchTable(ctx, client, retry, fpPeerFetch, true, owner, hash)
		return table, err == nil
	}
}

// fetchTable pulls one cached table from peer — GET /v1/cache/{hash},
// decoded by snnmap.ReadTableJSON — under retry, firing fault on every
// attempt; deadline forwards ctx's deadline. It is the one operation
// behind the worker's peer tier and the join warmer. Only a request that
// got no answer is retried: a non-200 status (not cached there, owner
// draining) or a body that is oversized or undecodable is a definitive
// miss.
func fetchTable(ctx context.Context, client *http.Client, retry resilience.Policy, fault string, deadline bool, peer, hash string) (*snnmap.Table, error) {
	var table *snnmap.Table
	err := retry.Do(ctx, func(int) error {
		rep, err := call{method: http.MethodGet, url: peer + "/v1/cache/" + hash,
			deadline: deadline, fault: fault, limit: maxBatchBytes}.do(ctx, client)
		switch {
		case rep.code == 0:
			return err
		case err != nil:
			return resilience.Permanent(err)
		case rep.code != http.StatusOK:
			return resilience.Permanent(fmt.Errorf("peer cache %s at %s: %s", hash, peer, http.StatusText(rep.code)))
		}
		table, err = snnmap.ReadTableJSON(bytes.NewReader(rep.body))
		if err != nil {
			return resilience.Permanent(err)
		}
		return nil
	})
	return table, err
}
