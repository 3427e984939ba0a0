package graph

import (
	"bytes"
	"math/rand"
	"reflect"
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
	out0 := csr.Out(0)
	if len(out0) != 2 || out0[0].Post != 1 || out0[1].Post != 3 {
		t.Fatalf("Out(0) = %v", out0)
	}
	if len(csr.Out(3)) != 0 {
		t.Fatal("Out(3) should be empty")
	}
	// CSR must preserve the total synapse count.
	total := 0
	for i := 0; i < g.Neurons; i++ {
		total += len(csr.Out(i))
	}
	if total != len(g.Synapses) {
		t.Fatalf("CSR total %d != %d", total, len(g.Synapses))
	}
}

func TestCSRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := &SpikeGraph{Neurons: n, Spikes: make([]spike.Train, n)}
		m := rng.Intn(100)
		for i := 0; i < m; i++ {
			g.Synapses = append(g.Synapses, Synapse{
				Pre:  int32(rng.Intn(n)),
				Post: int32(rng.Intn(n)),
			})
		}
		csr := g.BuildCSR()
		// Every synapse of pre i must appear in Out(i), and counts match.
		count := 0
		for i := 0; i < n; i++ {
			posts := csr.OutPost(i)
			if len(posts) != len(csr.Out(i)) {
				return false
			}
			for q, s := range csr.Out(i) {
				if int(s.Pre) != i || posts[q] != s.Post {
					return false
				}
				count++
			}
		}
		return count == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
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
