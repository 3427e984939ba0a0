package genapp

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// sameGraph reports whether two graphs hold the same neurons, synapses,
// spike trains, groups and duration.
func sameGraph(a, b *graph.SpikeGraph) bool {
	return a.Neurons == b.Neurons && a.DurationMs == b.DurationMs &&
		reflect.DeepEqual(a.CSR, b.CSR) && reflect.DeepEqual(a.Spikes, b.Spikes) &&
		reflect.DeepEqual(a.Groups, b.Groups)
}

// synapseList expands a graph's CSR into its (pre, post) pairs, in CSR
// order.
func synapseList(g *graph.SpikeGraph) []graph.Synapse {
	out := make([]graph.Synapse, 0, len(g.CSR.Post))
	for i := 0; i < g.Neurons; i++ {
		for _, post := range g.CSR.OutPost(i) {
			out = append(out, graph.Synapse{Pre: int32(i), Post: post})
		}
	}
	return out
}

// TestBuildMatchesFrozenListGraph holds Build to the graph it produced
// when the family's synapse list was stored as is: the CSR is that list
// stably sorted by pre, the in-adjacency groups the sorted list by post,
// and the spike trains come from the same rng stream after the topology.
func TestBuildMatchesFrozenListGraph(t *testing.T) {
	for _, family := range Families() {
		for _, seed := range []int64{1, 7, 42} {
			s := mustSpec(t, family, "n=150,dur=300")
			s.Seed = seed
			app, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			syn, _, err := familyBuilders[family](s, rng)
			if err != nil {
				t.Fatal(err)
			}
			wantSpikes := trains(s, rng)
			sort.SliceStable(syn, func(a, b int) bool { return syn[a].Pre < syn[b].Pre })
			start := make([]int32, s.N+1)
			post := make([]int32, len(syn))
			for k, e := range syn {
				start[e.Pre+1]++
				post[k] = e.Post
			}
			for i := 1; i <= s.N; i++ {
				start[i] += start[i-1]
			}
			g := app.Graph
			if !slices.Equal(g.CSR.Start, start) || !slices.Equal(g.CSR.Post, post) {
				t.Fatalf("%s seed %d: CSR differs from the sorted synapse list", family, seed)
			}
			sort.SliceStable(syn, func(a, b int) bool { return syn[a].Post < syn[b].Post })
			in := g.InCSR()
			for k, e := range syn {
				if in.Pre[k] != e.Pre {
					t.Fatalf("%s seed %d: in-adjacency slot %d = %d, want %d", family, seed, k, in.Pre[k], e.Pre)
				}
			}
			if !reflect.DeepEqual(g.Spikes, wantSpikes) {
				t.Fatalf("%s seed %d: spike trains differ", family, seed)
			}
		}
	}
}
