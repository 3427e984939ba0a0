package graph

// Hypergraph is the multicast view of the synapse set: one hyperedge per
// neuron, spanning the neuron itself plus the post-synaptic endpoint of
// every out-synapse. A presynaptic spike is one multicast to the crossbars
// its hyperedge pins occupy — not len(fan-out) pairwise sends — which is
// exactly the word-level destination-mask packetization the NoC core uses.
// Cut metrics over this structure therefore count distinct destination
// crossbars (connectivity λ − 1), matching per-crossbar AER traffic.
type Hypergraph struct {
	// Start indexes Pins by hyperedge: edge e's pins are
	// Pins[Start[e]:Start[e+1]]. Edge e is source neuron e, so
	// len(Start) == Neurons+1 and every neuron owns exactly one edge
	// (possibly with no pins beyond itself).
	Start []int32
	// Pins lists pin neurons per edge: the first pin of edge e is e
	// itself, followed by the posts of its out-synapses in CSR order.
	// Multi-synapse targets and self-loops contribute one pin per
	// synapse, so pin multiplicity mirrors synapse multiplicity.
	Pins []int32
	// Weight[e] is the source neuron's spike count — the traffic
	// multiplier of the hyperedge (each spike pays the edge's
	// connectivity once).
	Weight []int64
}

// Edges returns the number of hyperedges (== neurons).
func (h *Hypergraph) Edges() int { return len(h.Start) - 1 }

// PinsOf returns edge e's pin list (source first, then posts).
func (h *Hypergraph) PinsOf(e int) []int32 {
	return h.Pins[h.Start[e]:h.Start[e+1]]
}

// Hypergraph returns the graph's hyperedge view, building it from the
// CSR on first use and reusing it afterwards. Like InCSR, the
// cache is safe for concurrent callers and assumes the graph is immutable
// once characterized.
func (g *SpikeGraph) Hypergraph() *Hypergraph {
	g.hgOnce.Do(func() { g.hgCache = g.BuildHypergraph() })
	return g.hgCache
}

// BuildHypergraph constructs a fresh hyperedge view of the graph. Most
// callers want the cached Hypergraph method instead.
func (g *SpikeGraph) BuildHypergraph() *Hypergraph {
	csr := &g.CSR
	n := g.Neurons
	h := &Hypergraph{
		Start:  make([]int32, n+1),
		Pins:   make([]int32, 0, n+len(csr.Post)),
		Weight: g.SpikeCounts(),
	}
	for i := 0; i < n; i++ {
		h.Pins = append(h.Pins, int32(i))
		h.Pins = append(h.Pins, csr.OutPost(i)...)
		h.Start[i+1] = int32(len(h.Pins))
	}
	return h
}
