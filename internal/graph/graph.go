// Package graph defines the spike graph G = (A, S) that represents a trained
// SNN (paper §III): A is the set of neurons and S the set of synapses
// ⟨ai, aj, Tij⟩ where Tij are the spike times of the pre-synaptic neuron ai.
// The graph is the interchange format between the application-level SNN
// simulator (internal/snn) and the partitioning framework
// (internal/partition).
package graph

import (
	"fmt"
	"sync"

	"repro/internal/spike"
)

// Synapse is a directed connection ⟨pre, post⟩ between two neurons: the
// transient list form a graph's CSR is built from (NewCSR) and the unit of
// a WorkloadDelta. A graph stores neither Weight nor DelayMs (no mapper
// reads them); NewCSR only checks the delay is non-negative. Spike times
// are stored once per neuron in SpikeGraph.Spikes rather than per-synapse:
// Tij is by construction the pre-synaptic neuron's train.
type Synapse struct {
	Pre     int32   `json:"pre"`
	Post    int32   `json:"post"`
	Weight  float64 `json:"weight"`
	DelayMs int32   `json:"delay_ms"`
}

// Group records the population structure of the network: a contiguous range
// of neuron indices [Start, Start+N) with a role label. Population structure
// is what hierarchy-based mappers such as PACMAN operate on.
type Group struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "input", "excitatory", "inhibitory", "readout"
	Start int    `json:"start"`
	N     int    `json:"n"`
}

// SpikeGraph is the initial specification of a trained SNN in terms of
// synaptic connectivity and spike times (paper §III). It is generated by
// the SNN simulator after a training/characterization run. No mapper reads
// a synapse's weight or delay, so the graph keeps only who connects to
// whom (CSR) and each neuron's spike train.
type SpikeGraph struct {
	Neurons int
	// CSR is the synapse set as an out-adjacency indexed by pre-synaptic
	// neuron, the only stored synapse form (see NewCSR).
	CSR    CSR
	Spikes []spike.Train
	Groups []Group
	// DurationMs is the length of the characterization run that produced
	// the spike times.
	DurationMs int64

	// inOnce/inCache memoize the in-adjacency (see InCSR). Graphs are
	// immutable after construction, so one build serves every technique
	// and every concurrent sweep job.
	inOnce  sync.Once
	inCache *InCSR
	// hgOnce/hgCache memoize the hyperedge view (see Hypergraph) under
	// the same immutability contract.
	hgOnce  sync.Once
	hgCache *Hypergraph
}

// Validate checks structural invariants: a well-formed CSR with synapse
// endpoints in range, spike trains present for every neuron and sorted,
// groups contiguous and in range.
func (g *SpikeGraph) Validate() error {
	if g.Neurons < 0 {
		return fmt.Errorf("graph: negative neuron count %d", g.Neurons)
	}
	if len(g.Spikes) != g.Neurons {
		return fmt.Errorf("graph: %d spike trains for %d neurons", len(g.Spikes), g.Neurons)
	}
	if err := g.CSR.validate(g.Neurons); err != nil {
		return err
	}
	for i, t := range g.Spikes {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("graph: neuron %d: %w", i, err)
		}
	}
	for gi, grp := range g.Groups {
		if grp.Start < 0 || grp.N < 0 || grp.Start+grp.N > g.Neurons {
			return fmt.Errorf("graph: group %d (%s) range [%d,%d) out of bounds", gi, grp.Name, grp.Start, grp.Start+grp.N)
		}
	}
	return nil
}

// SpikeCounts returns the number of spikes emitted by each neuron. This is
// |Tij| for every synapse with pre-synaptic neuron i and drives the PSO
// fitness (paper Eq. 7).
func (g *SpikeGraph) SpikeCounts() []int64 {
	counts := make([]int64, g.Neurons)
	for i, t := range g.Spikes {
		counts[i] = int64(len(t))
	}
	return counts
}

// TotalSpikes returns the total number of spikes emitted by all neurons.
func (g *SpikeGraph) TotalSpikes() int64 {
	var total int64
	for _, t := range g.Spikes {
		total += int64(len(t))
	}
	return total
}

// TotalSynapticTraffic returns the sum over all synapses of the pre-synaptic
// spike count — the fitness value F (paper Eq. 8) of the degenerate
// single-crossbar-per-neuron partition, i.e. an upper bound on interconnect
// traffic.
func (g *SpikeGraph) TotalSynapticTraffic() int64 {
	var total int64
	for i, t := range g.Spikes {
		total += int64(len(t)) * int64(len(g.CSR.OutPost(i)))
	}
	return total
}

// OutDegrees returns the out-degree of each neuron.
func (g *SpikeGraph) OutDegrees() []int {
	deg := make([]int, g.Neurons)
	for i := range deg {
		deg[i] = len(g.CSR.OutPost(i))
	}
	return deg
}

// InDegrees returns the in-degree of each neuron.
func (g *SpikeGraph) InDegrees() []int {
	deg := make([]int, g.Neurons)
	for _, post := range g.CSR.Post {
		deg[post]++
	}
	return deg
}

// GroupOf returns the group containing neuron i, or nil if the neuron is not
// covered by any group.
func (g *SpikeGraph) GroupOf(i int) *Group {
	for gi := range g.Groups {
		grp := &g.Groups[gi]
		if i >= grp.Start && i < grp.Start+grp.N {
			return grp
		}
	}
	return nil
}

// CSR is a compressed sparse row adjacency indexed by pre-synaptic neuron:
// the posts of neuron i are Post[Start[i]:Start[i+1]]. Partitioners use it
// for cache-friendly fitness evaluation.
type CSR struct {
	Start []int32 // length Neurons+1
	Post  []int32 // a 4-byte post index per synapse, grouped by pre
}

// NewCSR counting-sorts a synapse list into the CSR of a graph of n
// neurons. Placement walks the list in order, so each pre's posts keep
// list order. It rejects endpoints outside [0, n) and negative delays;
// the list itself is not retained.
func NewCSR(n int, syn []Synapse) (CSR, error) {
	c := CSR{Start: make([]int32, n+1)}
	for i, s := range syn {
		if s.Pre < 0 || int(s.Pre) >= n || s.Post < 0 || int(s.Post) >= n {
			return CSR{}, fmt.Errorf("graph: synapse %d %d→%d out of range [0,%d)", i, s.Pre, s.Post, n)
		}
		if s.DelayMs < 0 {
			return CSR{}, fmt.Errorf("graph: synapse %d negative delay", i)
		}
		c.Start[s.Pre+1]++
	}
	for i := 1; i <= n; i++ {
		c.Start[i] += c.Start[i-1]
	}
	// Place through Start[pre] as the bucket cursor; afterwards Start[i]
	// holds bucket i's end, which is bucket i+1's start.
	c.Post = make([]int32, len(syn))
	for _, s := range syn {
		c.Post[c.Start[s.Pre]] = s.Post
		c.Start[s.Pre]++
	}
	copy(c.Start[1:], c.Start[:n])
	c.Start[0] = 0
	return c, nil
}

// validate checks that c is a CSR of n neurons: n+1 non-decreasing
// offsets from 0 to len(Post), and every post in range.
func (c *CSR) validate(n int) error {
	if len(c.Start) != n+1 || c.Start[0] != 0 || int(c.Start[n]) != len(c.Post) {
		return fmt.Errorf("graph: CSR offsets do not span %d synapses of %d neurons", len(c.Post), n)
	}
	for i := 0; i < n; i++ {
		if c.Start[i] > c.Start[i+1] {
			return fmt.Errorf("graph: CSR offsets decrease at neuron %d", i)
		}
	}
	for k, post := range c.Post {
		if post < 0 || int(post) >= n {
			return fmt.Errorf("graph: synapse %d post %d out of range", k, post)
		}
	}
	return nil
}

// OutPost returns the post-synaptic neurons of i, in CSR order.
func (c *CSR) OutPost(i int) []int32 {
	return c.Post[c.Start[i]:c.Start[i+1]]
}

// InCSR is the in-adjacency of the graph, indexed by post-synaptic
// neuron: the pres of neuron j are Pre[Start[j]:Start[j+1]], in CSR
// order (ascending pre, and CSR order within one pre).
type InCSR struct {
	Start []int32 // length Neurons+1
	Pre   []int32 // a 4-byte pre index per synapse, grouped by post
}

// InCSR returns the graph's in-adjacency, built from the CSR on first use
// and reused afterwards. The cache is safe for concurrent callers.
func (g *SpikeGraph) InCSR() *InCSR {
	g.inOnce.Do(func() {
		n, out := g.Neurons, &g.CSR
		in := &InCSR{Start: make([]int32, n+1), Pre: make([]int32, len(out.Post))}
		for _, post := range out.Post {
			in.Start[post+1]++
		}
		for j := 1; j <= n; j++ {
			in.Start[j] += in.Start[j-1]
		}
		// Place through Start[post] as the cursor, as NewCSR does.
		for i := 0; i < n; i++ {
			for _, post := range out.OutPost(i) {
				in.Pre[in.Start[post]] = int32(i)
				in.Start[post]++
			}
		}
		copy(in.Start[1:], in.Start[:n])
		in.Start[0] = 0
		g.inCache = in
	})
	return g.inCache
}

// InPre returns the pre-synaptic neurons of j, in CSR order.
func (c *InCSR) InPre(j int) []int32 {
	return c.Pre[c.Start[j]:c.Start[j+1]]
}

// Stats summarizes a spike graph for reporting.
type Stats struct {
	Neurons     int
	Synapses    int
	TotalSpikes int64
	// Traffic is the total synaptic traffic (spikes × fan-out).
	Traffic float64
	// MeanRateHz is the population mean firing rate.
	MeanRateHz float64
}

// Summary computes summary statistics of the graph.
func (g *SpikeGraph) Summary() Stats {
	st := Stats{
		Neurons:     g.Neurons,
		Synapses:    len(g.CSR.Post),
		TotalSpikes: g.TotalSpikes(),
		Traffic:     float64(g.TotalSynapticTraffic()),
	}
	if g.DurationMs > 0 && g.Neurons > 0 {
		st.MeanRateHz = float64(st.TotalSpikes) * 1000 / float64(g.DurationMs) / float64(g.Neurons)
	}
	return st
}
