package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/spike"
)

// testGraph builds a small 4-neuron chain 0->1->2->3 plus a skip synapse
// 0->3 with known spike counts.
func testGraph() *SpikeGraph {
	return &SpikeGraph{
		Neurons: 4,
		Synapses: []Synapse{
			{Pre: 0, Post: 1, Weight: 1},
			{Pre: 1, Post: 2, Weight: 1},
			{Pre: 2, Post: 3, Weight: 1},
			{Pre: 0, Post: 3, Weight: 0.5},
		},
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
	cases := []struct {
		name   string
		mutate func(*SpikeGraph)
	}{
		{"pre out of range", func(g *SpikeGraph) { g.Synapses[0].Pre = 99 }},
		{"post out of range", func(g *SpikeGraph) { g.Synapses[0].Post = -1 }},
		{"negative delay", func(g *SpikeGraph) { g.Synapses[0].DelayMs = -2 }},
		{"train count mismatch", func(g *SpikeGraph) { g.Spikes = g.Spikes[:2] }},
		{"unsorted train", func(g *SpikeGraph) { g.Spikes[0] = spike.Train{5, 1} }},
		{"group out of bounds", func(g *SpikeGraph) { g.Groups[0].N = 100 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph()
			tc.mutate(g)
			if err := g.Validate(); err == nil {
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
	g2 := &SpikeGraph{Neurons: 1, Spikes: []spike.Train{{}}}
	if g2.GroupOf(0) != nil {
		t.Fatal("uncovered neuron should have nil group")
	}
}

func TestBuildCSR(t *testing.T) {
	g := testGraph()
	csr := g.BuildCSR()
	if out0 := csr.OutPost(0); !reflect.DeepEqual(out0, []int32{1, 3}) {
		t.Fatalf("OutPost(0) = %v", out0)
	}
	if len(csr.OutPost(3)) != 0 {
		t.Fatal("OutPost(3) should be empty")
	}
	if len(csr.Post) != len(g.Synapses) {
		t.Fatalf("CSR total %d != %d", len(csr.Post), len(g.Synapses))
	}
	in := g.InCSR()
	if in3 := in.InPre(3); !reflect.DeepEqual(in3, []int32{2, 0}) {
		t.Fatalf("InPre(3) = %v", in3)
	}
	if len(in.InPre(0)) != 0 {
		t.Fatal("InPre(0) should be empty")
	}
	if g.CSR() != g.CSR() || g.InCSR() != in {
		t.Fatal("CSR and InCSR must be memoized")
	}
}

// TestCSRProperty pins the counting-placement adjacencies to the frozen
// builds they replaced (referenceCSR, referenceInAdj) on random graphs
// with self-loops, parallel synapses and neurons of degree zero: every
// offset and every endpoint, in order.
func TestCSRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := &SpikeGraph{Neurons: n, Spikes: make([]spike.Train, n)}
		m := rng.Intn(200)
		for i := 0; i < m; i++ {
			g.Synapses = append(g.Synapses, Synapse{
				Pre:     int32(rng.Intn(n)),
				Post:    int32(rng.Intn(n)),
				Weight:  rng.Float64(),
				DelayMs: int32(rng.Intn(4)),
			})
		}
		start, syn := referenceCSR(g)
		post := make([]int32, len(syn))
		for q, s := range syn {
			post[q] = s.Post
		}
		csr := g.BuildCSR()
		if !slices.Equal(csr.Start, start) || !slices.Equal(csr.Post, post) {
			return false
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(csr.OutPost(i), post[start[i]:start[i+1]]) {
				return false
			}
		}
		inStart, pre := referenceInAdj(g)
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

func TestJSONRoundTrip(t *testing.T) {
	g := testGraph()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Neurons != g.Neurons || len(back.Synapses) != len(g.Synapses) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if !reflect.DeepEqual(back.Groups, g.Groups) {
		t.Fatalf("groups mismatch: %v vs %v", back.Groups, g.Groups)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString(`{"neurons":-3}`)); err == nil {
		t.Fatal("negative neuron count must be rejected")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("malformed JSON must be rejected")
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
