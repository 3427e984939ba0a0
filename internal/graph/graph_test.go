package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/spike"
)

// mustCSR builds the CSR of a hand-made synapse list.
func mustCSR(n int, syn []Synapse) CSR {
	c, err := NewCSR(n, syn)
	if err != nil {
		panic(err)
	}
	return c
}

// testGraph builds a small 4-neuron chain 0->1->2->3 plus a skip synapse
// 0->3 with known spike counts.
func testGraph() *SpikeGraph {
	return &SpikeGraph{
		Neurons: 4,
		CSR: mustCSR(4, []Synapse{
			{Pre: 0, Post: 1, Weight: 1},
			{Pre: 1, Post: 2, Weight: 1},
			{Pre: 2, Post: 3, Weight: 1},
			{Pre: 0, Post: 3, Weight: 0.5},
		}),
		Spikes: []spike.Train{
			{0, 10, 20}, // neuron 0: 3 spikes
			{5},         // neuron 1: 1 spike
			{},          // neuron 2: none
			{7, 8},      // neuron 3: 2 spikes
		},
		Groups: []Group{
			{Name: "in", Kind: "input", Start: 0, N: 1},
			{Name: "hidden", Kind: "excitatory", Start: 1, N: 2},
			{Name: "out", Kind: "readout", Start: 3, N: 1},
		},
		DurationMs: 1000,
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := testGraph().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	// A synapse enters a graph only through NewCSR, which rejects bad
	// endpoints and delays; Validate rejects a malformed CSR.
	fromList := func(syn Synapse) func(*SpikeGraph) error {
		return func(g *SpikeGraph) error {
			_, err := NewCSR(g.Neurons, []Synapse{syn})
			return err
		}
	}
	validated := func(mutate func(*SpikeGraph)) func(*SpikeGraph) error {
		return func(g *SpikeGraph) error {
			mutate(g)
			return g.Validate()
		}
	}
	cases := []struct {
		name string
		bad  func(*SpikeGraph) error
	}{
		{"pre out of range", fromList(Synapse{Pre: 99, Post: 0})},
		{"post out of range", fromList(Synapse{Pre: 0, Post: -1})},
		{"negative delay", fromList(Synapse{Pre: 0, Post: 1, DelayMs: -2})},
		{"CSR post out of range", validated(func(g *SpikeGraph) { g.CSR.Post[0] = 99 })},
		{"CSR offsets short", validated(func(g *SpikeGraph) { g.CSR.Start = g.CSR.Start[:4] })},
		{"CSR offsets decrease", validated(func(g *SpikeGraph) { g.CSR.Start[1], g.CSR.Start[2] = 3, 2 })},
		{"CSR offsets miss synapses", validated(func(g *SpikeGraph) { g.CSR.Post = g.CSR.Post[:3] })},
		{"train count mismatch", validated(func(g *SpikeGraph) { g.Spikes = g.Spikes[:2] })},
		{"unsorted train", validated(func(g *SpikeGraph) { g.Spikes[0] = spike.Train{5, 1} })},
		{"group out of bounds", validated(func(g *SpikeGraph) { g.Groups[0].N = 100 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.bad(testGraph()); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestSpikeCountsAndTraffic(t *testing.T) {
	g := testGraph()
	counts := g.SpikeCounts()
	if !reflect.DeepEqual(counts, []int64{3, 1, 0, 2}) {
		t.Fatalf("SpikeCounts = %v", counts)
	}
	if got := g.TotalSpikes(); got != 6 {
		t.Fatalf("TotalSpikes = %d, want 6", got)
	}
	// Traffic: syn 0->1 carries 3, 1->2 carries 1, 2->3 carries 0,
	// 0->3 carries 3. Total 7.
	if got := g.TotalSynapticTraffic(); got != 7 {
		t.Fatalf("TotalSynapticTraffic = %d, want 7", got)
	}
}

func TestDegrees(t *testing.T) {
	g := testGraph()
	if got := g.OutDegrees(); !reflect.DeepEqual(got, []int{2, 1, 1, 0}) {
		t.Fatalf("OutDegrees = %v", got)
	}
	if got := g.InDegrees(); !reflect.DeepEqual(got, []int{0, 1, 1, 2}) {
		t.Fatalf("InDegrees = %v", got)
	}
}

func TestGroupOf(t *testing.T) {
	g := testGraph()
	if grp := g.GroupOf(0); grp == nil || grp.Name != "in" {
		t.Fatalf("GroupOf(0) = %v", grp)
	}
	if grp := g.GroupOf(2); grp == nil || grp.Name != "hidden" {
		t.Fatalf("GroupOf(2) = %v", grp)
	}
	g2 := &SpikeGraph{Neurons: 1, CSR: mustCSR(1, nil), Spikes: []spike.Train{{}}}
	if g2.GroupOf(0) != nil {
		t.Fatal("uncovered neuron should have nil group")
	}
}

func TestBuildCSR(t *testing.T) {
	g := testGraph()
	csr := &g.CSR
	if out0 := csr.OutPost(0); !reflect.DeepEqual(out0, []int32{1, 3}) {
		t.Fatalf("OutPost(0) = %v", out0)
	}
	if len(csr.OutPost(3)) != 0 {
		t.Fatal("OutPost(3) should be empty")
	}
	if len(csr.Post) != 4 {
		t.Fatalf("CSR total %d != 4", len(csr.Post))
	}
	// The in-adjacency lists pres in CSR order: 0→3 sorts before 2→3
	// although the hand-made list gives 2→3 first.
	in := g.InCSR()
	if in3 := in.InPre(3); !reflect.DeepEqual(in3, []int32{0, 2}) {
		t.Fatalf("InPre(3) = %v", in3)
	}
	if len(in.InPre(0)) != 0 {
		t.Fatal("InPre(0) should be empty")
	}
	if g.InCSR() != in {
		t.Fatal("InCSR must be memoized")
	}
}

// TestCSRProperty pins the counting-placement adjacencies to the frozen
// list-based builds they replaced (referenceCSR, and referenceInAdj over
// the list stably sorted by pre, which is the order a graph now keeps) on
// random lists with self-loops, parallel synapses and neurons of degree
// zero: every offset and every endpoint, in order.
func TestCSRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		syn := randomSynapses(rng, n, rng.Intn(200))
		start, sorted := referenceCSR(n, syn)
		post := make([]int32, len(sorted))
		for q, s := range sorted {
			post[q] = s.Post
		}
		csr, err := NewCSR(n, syn)
		if err != nil || !slices.Equal(csr.Start, start) || !slices.Equal(csr.Post, post) {
			return false
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(csr.OutPost(i), post[start[i]:start[i+1]]) {
				return false
			}
		}
		g := &SpikeGraph{Neurons: n, CSR: csr, Spikes: make([]spike.Train, n)}
		if g.Validate() != nil {
			return false
		}
		inStart, pre := referenceInAdj(n, sorted)
		in := g.InCSR()
		if !slices.Equal(in.Start, inStart) || !slices.Equal(in.Pre, pre) {
			return false
		}
		for j := 0; j < n; j++ {
			if !slices.Equal(in.InPre(j), pre[inStart[j]:inStart[j+1]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	g := testGraph()
	st := g.Summary()
	if st.Neurons != 4 || st.Synapses != 4 || st.TotalSpikes != 6 {
		t.Fatalf("Summary = %+v", st)
	}
	// 6 spikes / 4 neurons / 1 s = 1.5 Hz.
	if st.MeanRateHz != 1.5 {
		t.Fatalf("MeanRateHz = %v, want 1.5", st.MeanRateHz)
	}
}
