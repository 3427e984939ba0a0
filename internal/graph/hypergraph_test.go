package graph

import (
	"reflect"
	"testing"

	"repro/internal/spike"
)

func hgTestGraph() *SpikeGraph {
	// 4 neurons: 0→{1,2,2}, 1→1 (self-loop), 3 silent with no fan-out.
	return &SpikeGraph{
		Neurons: 4,
		CSR: mustCSR(4, []Synapse{
			{Pre: 0, Post: 1, Weight: 1, DelayMs: 1},
			{Pre: 0, Post: 2, Weight: 1, DelayMs: 1},
			{Pre: 0, Post: 2, Weight: 1, DelayMs: 1},
			{Pre: 1, Post: 1, Weight: 1, DelayMs: 1},
		}),
		Spikes: []spike.Train{
			{0, 5, 10},
			{1},
			{},
			{},
		},
		DurationMs: 100,
	}
}

func TestBuildHypergraph(t *testing.T) {
	g := hgTestGraph()
	h := g.Hypergraph()
	if h.Edges() != 4 {
		t.Fatalf("edges %d, want 4", h.Edges())
	}
	// Edge 0: source pin first, then posts in CSR order with synapse
	// multiplicity preserved.
	if got := h.PinsOf(0); !reflect.DeepEqual(got, []int32{0, 1, 2, 2}) {
		t.Fatalf("edge 0 pins %v", got)
	}
	// Edge 1 keeps its self-loop as a duplicate pin.
	if got := h.PinsOf(1); !reflect.DeepEqual(got, []int32{1, 1}) {
		t.Fatalf("edge 1 pins %v", got)
	}
	// A neuron with no fan-out still owns a singleton edge.
	if got := h.PinsOf(3); !reflect.DeepEqual(got, []int32{3}) {
		t.Fatalf("edge 3 pins %v", got)
	}
	if want := []int64{3, 1, 0, 0}; !reflect.DeepEqual(h.Weight, want) {
		t.Fatalf("weights %v, want %v", h.Weight, want)
	}
	// Memoized: same view on every call.
	if g.Hypergraph() != h {
		t.Fatal("Hypergraph is not memoized")
	}
	// Total pins = neurons + synapses.
	if got, want := len(h.Pins), g.Neurons+len(g.CSR.Post); got != want {
		t.Fatalf("pins %d, want %d", got, want)
	}
}
