package fleet

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// NodeView is one node's entry in the gossiped membership view: its
// address, whether this observer currently believes it alive, the last
// instant it was seen healthy, and the incarnation — an epoch counter
// bumped every time this observer declares the node dead. Views merge
// by (member, incarnation), not LastSeen alone: alive evidence from a
// lower incarnation is from before a death we already witnessed and is
// rejected, so a peer router that was merely slower to notice a crash
// cannot flap the node back to life. Within the same incarnation,
// strictly-newer alive evidence still resurrects — that is the case the
// gossip channel exists for (a one-sided network fault where a peer can
// still reach the node).
type NodeView struct {
	Addr        string    `json:"addr"`
	State       string    `json:"state"` // "alive" | "dead"
	LastSeen    time.Time `json:"last_seen,omitempty"`
	Incarnation int64     `json:"incarnation,omitempty"`
}

const (
	nodeAlive = "alive"
	nodeDead  = "dead"
)

// monitor tracks worker liveness for the router: it probes every node's
// /healthz on a fixed cadence, counts consecutive failures (probe
// failures and proxy failures reported by the router both count), and
// flips a node dead once the threshold is reached — firing onDeath so
// the router can drop it from the ring and requeue its in-flight jobs.
// A succeeding probe resurrects the node via onJoin. Gossip peers
// (other routers) are polled for their /v1/fleet views and merged in.
type monitor struct {
	client    *http.Client
	interval  time.Duration
	timeout   time.Duration // per-probe budget, floored at 1s
	threshold int
	now       func() time.Time
	gossip    []string // peer routers to merge views from

	onDeath func(node string)
	onJoin  func(node string)

	mu    sync.Mutex
	fails map[string]int
	view  map[string]*NodeView

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func newMonitor(nodes []string, interval time.Duration, threshold int, client *http.Client, now func() time.Time) *monitor {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if threshold <= 0 {
		threshold = 2
	}
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if now == nil {
		now = time.Now
	}
	// The probe budget is floored independently of the cadence: a fast
	// probe interval (tests, aggressive detection) must not shrink the
	// timeout to where scheduling jitter on a loaded host reads as death
	// — a killed node still fails instantly (connection refused), so the
	// floor costs detection latency only for genuinely hung nodes.
	timeout := interval
	if timeout < time.Second {
		timeout = time.Second
	}
	m := &monitor{
		client:    client,
		interval:  interval,
		timeout:   timeout,
		threshold: threshold,
		now:       now,
		fails:     map[string]int{},
		view:      map[string]*NodeView{},
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	// Members start optimistic: routing begins immediately and the first
	// probe round corrects any node that was never actually up.
	t := now()
	for _, n := range nodes {
		m.view[n] = &NodeView{Addr: n, State: nodeAlive, LastSeen: t}
	}
	return m
}

// start launches the probe loop; close() stops it and waits.
func (m *monitor) start() {
	go func() {
		defer close(m.done)
		tick := time.NewTicker(m.interval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.probeAll()
				m.gossipAll()
			}
		}
	}()
}

func (m *monitor) close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// nodes snapshots the monitored addresses.
func (m *monitor) nodes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.view))
	for n := range m.view {
		out = append(out, n)
	}
	return out
}

// views snapshots the membership view for /v1/fleet and gossip, ordered
// by address for stable rendering.
func (m *monitor) views() []NodeView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeView, 0, len(m.view))
	for _, v := range m.view {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// alive reports whether the node is currently believed healthy.
func (m *monitor) alive(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view[node]
	return v != nil && v.State == nodeAlive
}

func (m *monitor) probeAll() {
	nodes := m.nodes()
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			if m.probe(node) {
				m.markAlive(node, m.now())
			} else {
				m.reportFailure(node)
			}
		}(n)
	}
	wg.Wait()
}

func (m *monitor) probe(node string) bool {
	rep, err := call{method: http.MethodGet, url: node + "/healthz",
		timeout: m.timeout, limit: maxSpecBytes}.do(context.Background(), m.client)
	return err == nil && rep.code == http.StatusOK
}

// gossipAll merges peer routers' membership views: alive evidence newer
// than ours resurrects a node we had declared dead (and clears its
// failure streak), closing observation gaps between routers.
func (m *monitor) gossipAll() {
	for _, peer := range m.gossip {
		rep, _ := call{method: http.MethodGet, url: peer + "/v1/fleet",
			timeout: m.timeout, limit: maxSpecBytes}.do(context.Background(), m.client)
		var fv struct {
			Nodes []NodeView `json:"nodes"`
		}
		if !rep.decode(&fv) {
			continue
		}
		for _, nv := range fv.Nodes {
			if nv.State == nodeAlive {
				m.mergeAlive(nv.Addr, nv.LastSeen, nv.Incarnation)
			}
		}
	}
}

// markAlive records direct healthy evidence, firing onJoin on a
// dead→alive transition.
func (m *monitor) markAlive(node string, at time.Time) {
	m.mu.Lock()
	v := m.view[node]
	if v == nil {
		m.mu.Unlock()
		return
	}
	m.fails[node] = 0
	revived := v.State != nodeAlive
	v.State = nodeAlive
	if at.After(v.LastSeen) {
		v.LastSeen = at
	}
	join := m.onJoin
	m.mu.Unlock()
	if revived && join != nil {
		join(node)
	}
}

// mergeAlive applies gossiped alive evidence under (member, incarnation)
// rules: evidence from a lower incarnation predates a death we already
// declared and is dropped; a higher incarnation means the peer has seen
// a whole death+revival cycle we missed and is adopted wholesale; equal
// incarnations fall back to LastSeen recency — resurrect only when the
// peer's observation is strictly newer than our last direct sighting.
func (m *monitor) mergeAlive(node string, lastSeen time.Time, incarnation int64) {
	m.mu.Lock()
	v := m.view[node]
	if v == nil || incarnation < v.Incarnation ||
		(incarnation == v.Incarnation && !lastSeen.After(v.LastSeen)) {
		m.mu.Unlock()
		return
	}
	m.fails[node] = 0
	revived := v.State != nodeAlive
	v.State = nodeAlive
	v.LastSeen = lastSeen
	v.Incarnation = incarnation
	join := m.onJoin
	m.mu.Unlock()
	if revived && join != nil {
		join(node)
	}
}

// reportFailure counts one failed interaction (probe or proxy attempt)
// and flips the node dead at the threshold, firing onDeath once per
// alive→dead transition.
func (m *monitor) reportFailure(node string) {
	m.mu.Lock()
	v := m.view[node]
	if v == nil {
		m.mu.Unlock()
		return
	}
	m.fails[node]++
	died := v.State == nodeAlive && m.fails[node] >= m.threshold
	if died {
		// Declaring death opens a new epoch: alive gossip from peers that
		// have not yet noticed carries the old incarnation and is rejected.
		v.State = nodeDead
		v.Incarnation++
	}
	death := m.onDeath
	m.mu.Unlock()
	if died && death != nil {
		death(node)
	}
}
