package graph

import "sort"

// referenceCSR is the frozen out-adjacency build the counting placement
// replaced: a copy of the synapse list, stably sorted by pre, with the
// bucket offsets counted from it.
func referenceCSR(g *SpikeGraph) ([]int32, []Synapse) {
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
	return start, syn
}

// referenceInAdj is the frozen in-adjacency loop that every
// partition.NewProblem ran before the graph memoized it: offsets counted
// by post, then pres placed through a separate cursor in synapse-list
// order.
func referenceInAdj(g *SpikeGraph) ([]int32, []int32) {
	n := g.Neurons
	start := make([]int32, n+1)
	for _, s := range g.Synapses {
		start[s.Post+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	pre := make([]int32, len(g.Synapses))
	cursor := make([]int32, n)
	copy(cursor, start[:n])
	for _, s := range g.Synapses {
		k := cursor[s.Post]
		cursor[s.Post]++
		pre[k] = s.Pre
	}
	return start, pre
}
