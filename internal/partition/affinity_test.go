package partition

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// affinityHarness drives an affinity state and a plain copy of its
// assignment side by side and holds the state to the full-recompute
// oracle (Problem.Cost, CostDelta, SwapDelta) after every step.
type affinityHarness struct {
	p   *Problem
	s   *affinity
	cur Assignment
}

func newAffinityHarness(t testing.TB, p *Problem, a Assignment) *affinityHarness {
	h := &affinityHarness{p: p, s: newAffinity(p, a.Clone()), cur: a.Clone()}
	h.check(t, "initial state")
	return h
}

// move predicts, applies and re-checks a single-neuron move.
func (h *affinityHarness) move(t testing.TB, i, dst int) {
	if got, want := h.s.moveDelta(i, dst), h.p.CostDelta(h.cur, i, dst); got != want {
		t.Fatalf("move %d→%d: delta %d, oracle %d", i, dst, got, want)
	}
	h.s.move(i, dst)
	h.cur[i] = dst
	h.check(t, "after move")
}

// swap predicts a swap, applies it as two state moves and re-checks.
func (h *affinityHarness) swap(t testing.TB, i, j int) {
	h.s.gather(i)
	got := h.s.swapDelta(i, j)
	h.s.release(i)
	if want := h.p.SwapDelta(h.cur, i, j); got != want {
		t.Fatalf("swap %d↔%d: delta %d, oracle %d", i, j, got, want)
	}
	ki, kj := h.cur[i], h.cur[j]
	h.s.move(i, kj)
	h.s.move(j, ki)
	h.cur[i], h.cur[j] = kj, ki
	h.check(t, "after swap")
}

// check compares the whole state with the oracle: the assignment, the
// running cost, the table against a fresh build, a released scratch, and
// every move and swap delta.
func (h *affinityHarness) check(t testing.TB, when string) {
	t.Helper()
	p, s := h.p, h.s
	if !reflect.DeepEqual(s.a, h.cur) {
		t.Fatalf("%s: state assignment diverged", when)
	}
	if got, want := s.cost, p.Cost(h.cur); got != want {
		t.Fatalf("%s: running cost %d, oracle %d", when, got, want)
	}
	if !slices.Equal(s.aff, newAffinity(p, h.cur.Clone()).aff) {
		t.Fatalf("%s: affinity table differs from a fresh build", when)
	}
	if slices.ContainsFunc(s.exch, func(x int64) bool { return x != 0 }) {
		t.Fatalf("%s: exchange scratch not released", when)
	}
	for i := range h.cur {
		for k := 0; k < p.Crossbars; k++ {
			if got, want := s.moveDelta(i, k), p.CostDelta(h.cur, i, k); got != want {
				t.Fatalf("%s: moveDelta(%d, %d) = %d, oracle %d", when, i, k, got, want)
			}
		}
		s.gather(i)
		for j := range h.cur {
			if got, want := s.swapDelta(i, j), p.SwapDelta(h.cur, i, j); got != want {
				t.Fatalf("%s: swapDelta(%d, %d) = %d, oracle %d", when, i, j, got, want)
			}
		}
		s.release(i)
	}
}

// TestAffinityMatchesOracle applies random move and swap sequences on
// random graphs with self-loops, parallel synapses and silent neurons.
func TestAffinityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(36)
		c := 2 + rng.Intn(7)
		p, err := NewProblem(randomGraph(rng, n, 4*n), c, n)
		if err != nil {
			t.Fatal(err)
		}
		a := make(Assignment, n)
		for i := range a {
			a[i] = rng.Intn(c)
		}
		h := newAffinityHarness(t, p, a)
		for step := 0; step < 40; step++ {
			if rng.Intn(2) == 0 {
				h.move(t, rng.Intn(n), rng.Intn(c))
			} else {
				h.swap(t, rng.Intn(n), rng.Intn(n))
			}
		}
	}
}

// FuzzAffinity runs the harness over a fuzzed problem and step sequence:
// the seed draws the graph, crossbar count and start assignment; every
// three bytes of ops are one step (a move when the first byte is even,
// else a swap) on the neurons and crossbar the next two bytes select.
func FuzzAffinity(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 1, 3, 4})
	f.Add(int64(42), []byte{2, 0, 0, 5, 7, 7, 9, 1, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		c := 1 + rng.Intn(8)
		p, err := NewProblem(randomGraph(rng, n, rng.Intn(5*n)), c, n)
		if err != nil {
			t.Fatal(err)
		}
		a := make(Assignment, n)
		for i := range a {
			a[i] = rng.Intn(c)
		}
		h := newAffinityHarness(t, p, a)
		for ; len(ops) >= 3; ops = ops[3:] {
			i := int(ops[1]) % n
			if ops[0]%2 == 0 {
				h.move(t, i, int(ops[2])%c)
			} else {
				h.swap(t, i, int(ops[2])%n)
			}
		}
	})
}
