package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over node addresses, the fleet's one
// placement rule: a job lands on the node owning its JobSpec content
// address. Every node projects VNodes virtual points onto a 64-bit
// circle; a key is owned by the first point clockwise from its own hash.
// Virtual nodes smooth the load split (with 64+ per node the largest
// share stays within a few tens of percent of fair for small fleets),
// and consistency keeps cache affinity cheap under membership churn:
// removing a node moves only the keys it owned, everyone else's warm
// sessions and cached results stay where they are.
//
// Ring is a plain value — not safe for concurrent mutation. The router
// guards it with its own mutex and rebuilds membership in place.
type Ring struct {
	vnodes int
	nodes  map[string]struct{}
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	h    uint64
	node string
}

// NewRing builds a ring with vnodes virtual points per node (<=0 picks
// the default 64) over the given initial members.
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{vnodes: vnodes, nodes: map[string]struct{}{}}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// hash64 is the ring's point function (FNV-1a): placement only needs a
// fast, well-mixed, stable hash — the keys themselves are already
// SHA-256 content addresses.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{h: hash64(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
}

// Remove deletes a node and its virtual points (idempotent).
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len is the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes lists the members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the node owning key: the first virtual point clockwise
// from the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (node string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

// Successors returns up to n distinct nodes in ring order starting at
// the key's owner — the requeue/failover preference list: the owner
// first, then the nodes that would inherit the key as owners die.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if start == len(r.points) {
		start = 0
	}
	out := make([]string, 0, n)
	seen := map[string]struct{}{}
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.node]; ok {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
