package fleet

// Named fault-injection sites on the fleet's failure-prone paths. Each
// is a resilience.Point fired exactly where a real network fault would
// surface, so an armed spec (test hook or -chaos-spec) produces the
// same error the production code path must already survive. Keeping the
// names in one block is the registry contract: chaos tests iterate this
// set to assert every site actually fired.
const (
	// fpProxy fires on every router-to-worker job RPC built by proxied:
	// each attempt of a job or sub-batch POST (requeue resubmissions
	// included), the status GET, the cancel DELETE, the trace GET and the
	// batch-rollback DELETE. Result and SSE relays and the orphan cancel
	// do not fire it.
	fpProxy = "router.proxy"
	// fpRequeue fires per successor attempt while requeueing a dead
	// node's routes.
	fpRequeue = "router.requeue"
	// fpProbe fires in the health monitor's /healthz probe.
	fpProbe = "router.probe"
	// fpPeerFetch fires in the worker-side peer cache fetch.
	fpPeerFetch = "worker.peerfetch"
	// fpWarm fires per entry in the join-time cache warmer.
	fpWarm = "worker.warm"
	// fpReplicate fires in the router-to-router route-table pull.
	fpReplicate = "router.replicate"
)

// FaultPointNames lists every fleet fault-injection site. Chaos tests
// arm these and assert coverage; cmd wiring uses it to validate a
// -chaos-spec against known sites.
func FaultPointNames() []string {
	return []string{fpProxy, fpRequeue, fpProbe, fpPeerFetch, fpWarm, fpReplicate}
}
