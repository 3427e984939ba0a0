package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/spike"
)

// chainGraph builds a feedforward chain of `layers` layers with `width`
// neurons each; every neuron connects to all neurons of the next layer.
// Layer 0 neurons fire `rate` spikes each.
func chainGraph(layers, width int, rate int) *graph.SpikeGraph {
	n := layers * width
	g := &graph.SpikeGraph{Neurons: n, Spikes: make([]spike.Train, n), DurationMs: 1000}
	var syn []graph.Synapse
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				syn = append(syn, graph.Synapse{
					Pre:    int32(l*width + i),
					Post:   int32((l+1)*width + j),
					Weight: 1, DelayMs: 1,
				})
			}
		}
	}
	g.CSR = mustCSR(n, syn)
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			tr := make(spike.Train, rate)
			for s := 0; s < rate; s++ {
				tr[s] = int64(s * 10)
			}
			g.Spikes[l*width+i] = tr
		}
	}
	for l := 0; l < layers; l++ {
		g.Groups = append(g.Groups, graph.Group{
			Name: "layer", Kind: "excitatory", Start: l * width, N: width,
		})
	}
	return g
}

// mustCSR builds the CSR of a test graph's synapse list.
func mustCSR(n int, syn []graph.Synapse) graph.CSR {
	c, err := graph.NewCSR(n, syn)
	if err != nil {
		panic(err)
	}
	return c
}

// randomGraph builds a random graph for property tests.
func randomGraph(rng *rand.Rand, n, syn int) *graph.SpikeGraph {
	g := &graph.SpikeGraph{Neurons: n, Spikes: make([]spike.Train, n), DurationMs: 100}
	list := make([]graph.Synapse, syn)
	for i := range list {
		list[i] = graph.Synapse{
			Pre:    int32(rng.Intn(n)),
			Post:   int32(rng.Intn(n)),
			Weight: 1, DelayMs: 1,
		}
	}
	g.CSR = mustCSR(n, list)
	for i := 0; i < n; i++ {
		c := rng.Intn(5)
		tr := make(spike.Train, c)
		for s := 0; s < c; s++ {
			tr[s] = int64(s)
		}
		g.Spikes[i] = tr
	}
	return g
}

func TestNewProblemValidation(t *testing.T) {
	g := chainGraph(2, 4, 3)
	if _, err := NewProblem(g, 0, 4); err == nil {
		t.Fatal("0 crossbars must fail")
	}
	if _, err := NewProblem(g, 2, 0); err == nil {
		t.Fatal("0 size must fail")
	}
	if _, err := NewProblem(g, 1, 4); err == nil {
		t.Fatal("insufficient capacity must fail")
	}
	if _, err := NewProblem(nil, 2, 4); err == nil {
		t.Fatal("nil graph must fail")
	}
	if _, err := NewProblem(g, 2, 4); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAssignment(t *testing.T) {
	g := chainGraph(2, 2, 1) // 4 neurons
	p, err := NewProblem(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(Assignment{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(Assignment{0, 0, 0, 1}); err == nil {
		t.Fatal("overloaded crossbar must fail")
	}
	if err := p.Validate(Assignment{0, 0, 1}); err == nil {
		t.Fatal("short assignment must fail")
	}
	if err := p.Validate(Assignment{0, 0, 1, 5}); err == nil {
		t.Fatal("out-of-range crossbar must fail")
	}
}

func TestCostKnownValues(t *testing.T) {
	// 2 layers × 2 neurons, each layer-0 neuron fires 3 spikes and has 2
	// outgoing synapses.
	g := chainGraph(2, 2, 3)
	p, err := NewProblem(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Layers split across crossbars: all 4 synapses cross, each carrying
	// 3 spikes = 12.
	if got := p.Cost(Assignment{0, 0, 1, 1}); got != 12 {
		t.Fatalf("split cost = %d, want 12", got)
	}
	// One neuron per layer on each crossbar: 2 of 4 synapses cross.
	if got := p.Cost(Assignment{0, 1, 0, 1}); got != 6 {
		t.Fatalf("interleaved cost = %d, want 6", got)
	}
	// Everything on one crossbar is infeasible here (Nc=2), but with a
	// larger crossbar cost must be 0.
	p2, err := NewProblem(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Cost(Assignment{0, 0, 0, 0}); got != 0 {
		t.Fatalf("single-crossbar cost = %d, want 0", got)
	}
}

func TestCostMatchesPaperSyntheticSynapseCounts(t *testing.T) {
	// Paper §V-A: topology mxn has 10 input neurons fully connected to
	// the first layer; 4x200 has 122000 synapses, 1x200 has 2000.
	build := func(m, n int) int {
		inputs := 10
		total := inputs*n + (m-1)*n*n
		return total
	}
	if got := build(1, 200); got != 2000 {
		t.Fatalf("1x200 synapses = %d, want 2000", got)
	}
	if got := build(4, 200); got != 122000 {
		t.Fatalf("4x200 synapses = %d, want 122000", got)
	}
}

func TestTrafficMatrixConsistentWithCost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 20, 100)
	p, err := NewProblem(g, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := randomFeasible(p, rng)
	m := p.TrafficMatrix(a)
	var sum int64
	for k1 := range m {
		if m[k1][k1] != 0 {
			t.Fatal("diagonal traffic must be zero")
		}
		for k2 := range m[k1] {
			sum += m[k1][k2]
		}
	}
	if sum != p.Cost(a) {
		t.Fatalf("traffic matrix sum %d != cost %d", sum, p.Cost(a))
	}
}

func TestGlobalSynapsesComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 16, 60)
	p, err := NewProblem(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		a := randomFeasible(p, rng)
		global, local := 0, 0
		for pre := 0; pre < g.Neurons; pre++ {
			for _, post := range g.CSR.OutPost(pre) {
				if a[pre] != a[post] {
					global++
				} else {
					local++
				}
			}
		}
		got := p.GlobalSynapseCount(a)
		if got != global {
			t.Fatalf("trial %d: GlobalSynapseCount = %d, brute force %d", trial, got, global)
		}
		if len(g.CSR.Post)-got != local {
			t.Fatalf("trial %d: complement %d != local count %d", trial, len(g.CSR.Post)-got, local)
		}
	}
}

func TestCostDeltaMatchesFullRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(150))
		c := 2 + rng.Intn(4)
		nc := (n+c-1)/c + rng.Intn(4) + 1
		p, err := NewProblem(g, c, nc)
		if err != nil {
			return false
		}
		a := randomFeasible(p, rng)
		base := p.Cost(a)
		for trial := 0; trial < 10; trial++ {
			i := rng.Intn(n)
			k := rng.Intn(c)
			delta := p.CostDelta(a, i, k)
			b := a.Clone()
			b[i] = k
			if base+delta != p.Cost(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveValidatesOutput(t *testing.T) {
	g := chainGraph(2, 4, 2)
	p, err := NewProblem(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(Pacman{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != "PACMAN" || res.Cost != p.Cost(res.Assign) {
		t.Fatalf("result = %+v", res)
	}
}
