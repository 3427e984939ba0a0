package fleet

import "repro/internal/obs"

// routerMetrics are the router's fleet-level metrics, each declared
// once on the router's registry, which renders its GET /metrics.
type routerMetrics struct {
	reg         *obs.Registry
	routed      *obs.CounterVec // accepted placements by node
	spills      *obs.Counter    // shed/drain responses spilled past
	requeues    *obs.Counter    // routes replayed after a node death
	proxyErrors *obs.Counter    // network-level proxy failures
	batches     *obs.Counter    // batches fully placed
	replicas    *obs.Counter    // peer routes adopted via replication
	redirects   *obs.Counter    // 307s to a route's origin router
}

// newRouterMetrics declares the router's families in exposition order.
// The gauges read routes and nodes at render time, so they can never
// drift from their sources.
func newRouterMetrics(routes func() int64, nodes func() []NodeView) *routerMetrics {
	r := obs.NewRegistry()
	m := &routerMetrics{
		reg:         r,
		routed:      r.CounterVec("snnmapd_fleet_routed_total", "Jobs placed on a worker, by node.", "node"),
		spills:      r.Counter("snnmapd_fleet_spills_total", "Placements spilled past a shedding or draining ring owner."),
		requeues:    r.Counter("snnmapd_fleet_requeues_total", "Jobs replayed on a ring successor after their worker died."),
		proxyErrors: r.Counter("snnmapd_fleet_proxy_errors_total", "Network-level failures talking to workers."),
		batches:     r.Counter("snnmapd_fleet_batches_total", "Batches fully placed across the fleet."),
		replicas:    r.Counter("snnmapd_fleet_replica_routes_total", "Peer routes adopted via route-table replication."),
		redirects:   r.Counter("snnmapd_fleet_redirects_total", "Requests 307-redirected to a route's origin router."),
	}
	r.GaugeFunc("snnmapd_fleet_routes", "Jobs currently tracked by the route table.", routes)
	r.GaugeVecFunc("snnmapd_fleet_nodes", "Fleet members by health state.", "state", func() map[string]int64 {
		n := map[string]int64{nodeAlive: 0, nodeDead: 0}
		for _, v := range nodes() {
			if v.State == nodeAlive {
				n[nodeAlive]++
			} else {
				n[nodeDead]++
			}
		}
		return n
	})
	return m
}
