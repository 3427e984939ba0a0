// Package graph defines the spike graph G = (A, S) that represents a trained
// SNN (paper §III): A is the set of neurons and S the set of synapses
// ⟨ai, aj, Tij⟩ where Tij are the spike times of the pre-synaptic neuron ai.
// The graph is the interchange format between the application-level SNN
// simulator (internal/snn) and the partitioning framework
// (internal/partition).
package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/spike"
)

// Synapse is a directed connection ⟨pre, post⟩ between two neurons. Spike
// times are stored once per neuron in SpikeGraph.Spikes rather than
// per-synapse: Tij is by construction the pre-synaptic neuron's train.
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
// synaptic weights and spike times (paper §III). It is generated by the SNN
// simulator after a training/characterization run.
type SpikeGraph struct {
	Neurons  int           `json:"neurons"`
	Synapses []Synapse     `json:"synapses"`
	Spikes   []spike.Train `json:"spikes"`
	Groups   []Group       `json:"groups"`
	// DurationMs is the length of the characterization run that produced
	// the spike times.
	DurationMs int64 `json:"duration_ms"`

	// csrOnce/csrCache memoize the CSR adjacency (see CSR). Graphs are
	// immutable after construction, so one build serves every technique
	// and every concurrent sweep job.
	csrOnce  sync.Once
	csrCache *CSR
	// hgOnce/hgCache memoize the hyperedge view (see Hypergraph) under
	// the same immutability contract.
	hgOnce  sync.Once
	hgCache *Hypergraph
}

// Validate checks structural invariants: synapse endpoints in range, spike
// trains present for every neuron and sorted, groups contiguous and in
// range.
func (g *SpikeGraph) Validate() error {
	if g.Neurons < 0 {
		return fmt.Errorf("graph: negative neuron count %d", g.Neurons)
	}
	if len(g.Spikes) != g.Neurons {
		return fmt.Errorf("graph: %d spike trains for %d neurons", len(g.Spikes), g.Neurons)
	}
	for i, s := range g.Synapses {
		if s.Pre < 0 || int(s.Pre) >= g.Neurons {
			return fmt.Errorf("graph: synapse %d pre %d out of range", i, s.Pre)
		}
		if s.Post < 0 || int(s.Post) >= g.Neurons {
			return fmt.Errorf("graph: synapse %d post %d out of range", i, s.Post)
		}
		if s.DelayMs < 0 {
			return fmt.Errorf("graph: synapse %d negative delay", i)
		}
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
	counts := g.SpikeCounts()
	var total int64
	for _, s := range g.Synapses {
		total += counts[s.Pre]
	}
	return total
}

// OutDegrees returns the out-degree of each neuron.
func (g *SpikeGraph) OutDegrees() []int {
	deg := make([]int, g.Neurons)
	for _, s := range g.Synapses {
		deg[s.Pre]++
	}
	return deg
}

// InDegrees returns the in-degree of each neuron.
func (g *SpikeGraph) InDegrees() []int {
	deg := make([]int, g.Neurons)
	for _, s := range g.Synapses {
		deg[s.Post]++
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

// CSR is a compressed sparse row view of the synapse list, indexed by
// pre-synaptic neuron: synapses of neuron i are Synapses[Start[i]:Start[i+1]].
// Partitioners use it for cache-friendly fitness evaluation.
type CSR struct {
	Start    []int32   // length Neurons+1
	Synapses []Synapse // sorted by Pre (stable within Pre)
	// Post holds Synapses[q].Post at every q: the fitness loops read a
	// 4-byte index per synapse instead of a 24-byte record.
	Post []int32
}

// CSR returns the graph's CSR adjacency, building it on first use and
// reusing it afterwards. The cache is safe for concurrent callers;
// mutating Synapses after the first call is not supported (graphs are
// treated as immutable once characterized).
func (g *SpikeGraph) CSR() *CSR {
	g.csrOnce.Do(func() { g.csrCache = g.BuildCSR() })
	return g.csrCache
}

// BuildCSR constructs a fresh CSR adjacency of the graph. Most callers
// want the cached CSR method instead.
func (g *SpikeGraph) BuildCSR() *CSR {
	syn := make([]Synapse, len(g.Synapses))
	copy(syn, g.Synapses)
	sort.SliceStable(syn, func(a, b int) bool { return syn[a].Pre < syn[b].Pre })
	start := make([]int32, g.Neurons+1)
	for _, s := range syn {
		start[s.Pre+1]++
	}
	for i := 1; i <= g.Neurons; i++ {
		start[i] += start[i-1]
	}
	post := make([]int32, len(syn))
	for q, s := range syn {
		post[q] = s.Post
	}
	return &CSR{Start: start, Synapses: syn, Post: post}
}

// Out returns the synapses with pre-synaptic neuron i.
func (c *CSR) Out(i int) []Synapse {
	return c.Synapses[c.Start[i]:c.Start[i+1]]
}

// OutPost returns the post-synaptic neurons of i, in Out(i)'s order.
func (c *CSR) OutPost(i int) []int32 {
	return c.Post[c.Start[i]:c.Start[i+1]]
}

// WriteJSON serializes the graph to w as JSON.
func (g *SpikeGraph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(g)
}

// ReadJSON deserializes a graph written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*SpikeGraph, error) {
	var g SpikeGraph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("graph: decoding JSON: %w", err)
	}
	if g.Spikes == nil && g.Neurons >= 0 {
		g.Spikes = make([]spike.Train, g.Neurons)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
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
		Synapses:    len(g.Synapses),
		TotalSpikes: g.TotalSpikes(),
		Traffic:     float64(g.TotalSynapticTraffic()),
	}
	if g.DurationMs > 0 && g.Neurons > 0 {
		st.MeanRateHz = float64(st.TotalSpikes) * 1000 / float64(g.DurationMs) / float64(g.Neurons)
	}
	return st
}
