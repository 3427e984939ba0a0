package partition

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomAssignment draws a feasible assignment uniformly by shuffling a
// balanced slot list.
func randomAssignment(rng *rand.Rand, p *Problem) Assignment {
	slots := make([]int, 0, p.Crossbars*p.CrossbarSize)
	for k := 0; k < p.Crossbars; k++ {
		for s := 0; s < p.CrossbarSize; s++ {
			slots = append(slots, k)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return Assignment(slots[:p.Graph.Neurons])
}

func TestReferenceHyperCutKnownValues(t *testing.T) {
	// 2 layers × 2 neurons, layer-0 neurons fire 3 spikes and fan out to
	// both layer-1 neurons.
	g := chainGraph(2, 2, 3)
	p, err := NewProblem(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Split by layer: each layer-0 edge spans its own crossbar plus the
	// one holding both targets → λ=2, cut = 2 edges × 3 spikes × 1.
	if got := referenceHyperCut(p, Assignment{0, 0, 1, 1}); got != 6 {
		t.Fatalf("layer split cut = %d, want 6", got)
	}
	// Everything local: λ=1 for every edge.
	p2, err := NewProblem(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := referenceHyperCut(p2, Assignment{0, 0, 0, 0}); got != 0 {
		t.Fatalf("local cut = %d, want 0", got)
	}
	// Split one target off: layer-0 edges span {own, 0, 1} minus overlap.
	// Neuron 0,1 on crossbar 0, targets 2 on 0 and 3 on 1: each source
	// edge pins {0, 0, 1} → λ=2 → cut = 3+3 = 6.
	if got := referenceHyperCut(p2, Assignment{0, 0, 0, 1}); got != 6 {
		t.Fatalf("single split cut = %d, want 6", got)
	}
}

// TestHyperStateMatchesOracle is the bit-exactness contract of the
// tentpole: on random graphs (with self-loops and duplicate synapses) and
// random feasible assignments, every delta-evaluated move must equal the
// preserved full-recompute oracle, both as a predicted delta and as the
// running cut after the move is applied.
func TestHyperStateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(40)
		g := randomGraph(rng, n, 4*n)
		c := 2 + rng.Intn(5)
		size := (n + c - 1) / c
		size += 1 + rng.Intn(3) // slack so moves are feasible
		p, err := NewProblem(g, c, size)
		if err != nil {
			t.Fatal(err)
		}
		a := randomAssignment(rng, p)
		s, err := NewHyperState(p, a)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Cut(), referenceHyperCut(p, a); got != want {
			t.Fatalf("trial %d: initial cut %d, oracle %d", trial, got, want)
		}
		cur := a.Clone()
		deltas := make([]int64, c)
		for move := 0; move < 60; move++ {
			i := rng.Intn(n)
			dst := rng.Intn(c)
			before := referenceHyperCut(p, cur)
			after := cur.Clone()
			after[i] = dst
			wantDelta := referenceHyperCut(p, after) - before
			if got := s.MoveDelta(i, dst); got != wantDelta {
				t.Fatalf("trial %d move %d: neuron %d→%d delta %d, oracle %d", trial, move, i, dst, got, wantDelta)
			}
			// The one-pass vector scores every crossbar as MoveDelta does.
			s.moveDeltas(i, deltas)
			for k, d := range deltas {
				if want := s.MoveDelta(i, k); d != want {
					t.Fatalf("trial %d move %d: moveDeltas(%d)[%d] = %d, MoveDelta %d", trial, move, i, k, d, want)
				}
			}
			s.Move(i, dst)
			cur = after
			if got, want := s.Cut(), referenceHyperCut(p, cur); got != want {
				t.Fatalf("trial %d move %d: running cut %d, oracle %d", trial, move, got, want)
			}
		}
		if got := s.Assignment(); !reflect.DeepEqual(got, cur) {
			t.Fatalf("trial %d: state assignment diverged", trial)
		}
	}
}

func TestHyperStateValidation(t *testing.T) {
	g := chainGraph(2, 2, 1)
	p, err := NewProblem(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHyperState(p, Assignment{0, 0, 1}); err == nil {
		t.Fatal("short assignment must fail")
	}
	if _, err := NewHyperState(p, Assignment{0, 0, 1, 7}); err == nil {
		t.Fatal("out-of-range assignment must fail")
	}
}

func TestHyperCutPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 60, 240)
	p, err := NewProblem(g, 4, 18)
	if err != nil {
		t.Fatal(err)
	}
	a, err := HyperCut{}.Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(a); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// Deterministic: repeated solves are identical.
	b, err := HyperCut{}.Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("HyperCut is not deterministic")
	}
	// The FM refinement must not lose ground on the connectivity cut
	// against its own greedy seed.
	seed, err := Greedy{}.Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, was := referenceHyperCut(p, a), referenceHyperCut(p, seed); got > was {
		t.Fatalf("refined cut %d worse than greedy seed %d", got, was)
	}
}
