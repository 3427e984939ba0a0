package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/genapp"
	"repro/internal/hardware"
)

// checkMatchesFrozen runs Greedy, Refine (from the greedy seed and from a
// given start) and HyperCut against their frozen pre-rewrite bodies and
// requires identical assignments and, for Refine, the same returned gain.
func checkMatchesFrozen(t *testing.T, name string, p *Problem, start Assignment) {
	t.Helper()
	got, err := Greedy{}.Partition(p)
	if err != nil {
		t.Fatalf("%s: greedy: %v", name, err)
	}
	want, err := frozenGreedy(p)
	if err != nil {
		t.Fatalf("%s: frozen greedy: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: greedy diverges from the frozen body", name)
	}

	for _, a := range []Assignment{got, start} {
		for _, passes := range []int{1, 8} {
			ra, fa := a.Clone(), a.Clone()
			gain, wantGain := Refine(p, ra, passes), frozenRefine(p, fa, passes)
			if gain != wantGain || !reflect.DeepEqual(ra, fa) {
				t.Fatalf("%s: Refine(%d passes) gain %d, frozen %d; assignments equal %v",
					name, passes, gain, wantGain, reflect.DeepEqual(ra, fa))
			}
		}
	}

	hc, err := HyperCut{}.Partition(p)
	if err != nil {
		t.Fatalf("%s: hypercut: %v", name, err)
	}
	wantHC, err := frozenHyperCut(HyperCut{}, p)
	if err != nil {
		t.Fatalf("%s: frozen hypercut: %v", name, err)
	}
	if !reflect.DeepEqual(hc, wantHC) {
		t.Fatalf("%s: hypercut diverges from the frozen body", name)
	}
}

// TestPartitionersMatchFrozenRandom covers random graphs with self-loops
// and parallel synapses for C = 2..8, both with spare capacity (moves
// and swaps) and at exactly full capacity (swaps only).
func TestPartitionersMatchFrozenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for c := 2; c <= 8; c++ {
		for trial := 0; trial < 20; trial++ {
			for _, full := range []bool{false, true} {
				size := 2 + rng.Intn(12)
				n := c * size
				if !full {
					n -= 1 + rng.Intn(size)
				}
				g := randomGraph(rng, n, (2+rng.Intn(6))*n)
				p, err := NewProblem(g, c, size)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("C=%d trial %d full=%v", c, trial, full)
				checkMatchesFrozen(t, name, p, randomAssignment(rng, p))
			}
		}
	}
}

// TestPartitionersMatchFrozenGenApp covers every scenario family at
// n=512 under the tree and mesh architectures' default sizing (~n/4
// neurons per crossbar with 15% slack, as the root registry sizes them).
func TestPartitionersMatchFrozenGenApp(t *testing.T) {
	if testing.Short() {
		t.Skip("frozen-body equivalence on generated apps runs in the full suite")
	}
	const n = 512
	size := (n*115/100 + 3) / 4
	archs := []hardware.Arch{
		hardware.ForNeurons(n, size),
		hardware.MeshChip((n+size-1)/size, size),
	}
	rng := rand.New(rand.NewSource(5))
	for _, family := range genapp.Families() {
		app, err := apps.Build(fmt.Sprintf("gen:%s:n=%d", family, n), apps.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range archs {
			p, err := NewProblem(app.Graph, arch.Crossbars, arch.CrossbarSize)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesFrozen(t, family+"/"+arch.Name, p, randomAssignment(rng, p))
		}
	}
}

// checkPSOMatchesFrozen runs PSO on cfg at one and two workers and
// requires the frozen PSO's assignment and cost from both.
func checkPSOMatchesFrozen(t *testing.T, name string, p *Problem, cfg PSOConfig) {
	t.Helper()
	cfg = NewPSO(cfg).Cfg
	cfg.Workers = 1
	want, err := frozenPSO(cfg, p)
	if err != nil {
		t.Fatalf("%s: frozen PSO: %v", name, err)
	}
	wantCost := frozenCost(p, want)
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		got, err := NewPSO(cfg).Partition(p)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if cost := p.Cost(got); cost != wantCost || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s workers=%d: PSO cost %d, frozen %d; assignments equal %v",
				name, workers, cost, wantCost, reflect.DeepEqual(got, want))
		}
	}
}

// psoFrozenSwarms are the quick Fig. 7 swarm sizes.
var psoFrozenSwarms = []int{10, 32, 105}

// TestPSOMatchesFrozen holds PSO bit-identical to frozenPSO on the quick
// Fig. 7 grid: its four applications on the 4-crossbar quad architecture
// (crossbar size ≈ n/4 with 15% slack), swarm sizes 10, 32 and 105 at 40
// iterations, under gbest and lbest (K=2), seeded and unseeded, at one
// and two workers.
func TestPSOMatchesFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("frozen PSO equivalence on the Fig. 7 grid runs in the full suite")
	}
	workloads := []struct {
		spec  string
		durMs int64
	}{
		{"HW", 250},
		{"HE", 2000},
		{"synth:layers=1,width=800", 250},
		{"synth:layers=2,width=200", 250},
	}
	for _, wl := range workloads {
		app, err := apps.Build(wl.spec, apps.Config{Seed: 1, DurationMs: wl.durMs})
		if err != nil {
			t.Fatal(err)
		}
		n := app.Graph.Neurons
		p, err := NewProblem(app.Graph, 4, (n*115/100+3)/4)
		if err != nil {
			t.Fatal(err)
		}
		for _, swarm := range psoFrozenSwarms {
			for _, k := range []int{0, 2} {
				for _, unseeded := range []bool{false, true} {
					name := fmt.Sprintf("%s swarm=%d K=%d unseeded=%v", wl.spec, swarm, k, unseeded)
					checkPSOMatchesFrozen(t, name, p, PSOConfig{
						SwarmSize: swarm, Iterations: 40, Seed: 1,
						NeighborhoodK: k, DisableSeeding: unseeded,
					})
				}
			}
		}
	}
}

// TestPSOMatchesFrozenRandom covers random graphs with self-loops and
// parallel synapses at C = 2..16, with spare and with exactly full
// capacity, inertia above and below 1 (velocities that do and do not
// sit on the clamp), and a swarm larger than the ring neighborhood.
func TestPSOMatchesFrozenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for c := 2; c <= 16; c += 2 {
		for trial := 0; trial < 4; trial++ {
			size := 2 + rng.Intn(10)
			n := c * size
			if trial%2 == 0 {
				n -= 1 + rng.Intn(size)
			}
			p, err := NewProblem(randomGraph(rng, n, (1+rng.Intn(6))*n), c, size)
			if err != nil {
				t.Fatal(err)
			}
			inertia := []float64{0.9, 1.3}[trial/2]
			for _, k := range []int{0, 1} {
				name := fmt.Sprintf("C=%d trial %d K=%d", c, trial, k)
				checkPSOMatchesFrozen(t, name, p, PSOConfig{
					SwarmSize: 7, Iterations: 12, Seed: int64(trial + 1),
					Inertia: inertia, NeighborhoodK: k, DisableSeeding: trial == 3,
				})
			}
		}
	}
}

// TestCostMatchesFrozen holds Cost and TrafficMatrix to the frozen
// record-walking Cost on fully connected layers (runs of neurons sharing
// one post list), random graphs with self-loops and parallel synapses,
// C above the histogram bound, and assignments with entries outside
// [0, C).
func TestCostMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		var p *Problem
		var err error
		c := 2 + rng.Intn(8)
		if trial%10 == 9 {
			c = histCrossbars + 1 + rng.Intn(8)
		}
		if trial%2 == 0 {
			g := chainGraph(2+rng.Intn(3), 1+rng.Intn(12), rng.Intn(4))
			p, err = NewProblem(g, c, g.Neurons)
		} else {
			n := 1 + rng.Intn(60)
			p, err = NewProblem(randomGraph(rng, n, rng.Intn(6*n)), c, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		a := make(Assignment, p.Graph.Neurons)
		for i := range a {
			a[i] = rng.Intn(c)
		}
		want := frozenCost(p, a)
		if got := p.Cost(a); got != want {
			t.Fatalf("trial %d: Cost %d, frozen %d", trial, got, want)
		}
		var traffic int64
		for _, row := range p.TrafficMatrix(a) {
			for _, v := range row {
				traffic += v
			}
		}
		if traffic != want {
			t.Fatalf("trial %d: TrafficMatrix sums to %d, frozen Cost %d", trial, traffic, want)
		}
		for i := range a {
			if rng.Intn(4) == 0 {
				a[i] = []int{-1, c, c + 5, 1 << 20}[rng.Intn(4)]
			}
		}
		if got, want := p.Cost(a), frozenCost(p, a); got != want {
			t.Fatalf("trial %d, out-of-range entries: Cost %d, frozen %d", trial, got, want)
		}
	}
}
