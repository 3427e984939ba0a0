package partition

import (
	"reflect"
	"testing"
)

func TestPSOLbestNeighborhood(t *testing.T) {
	g := chainGraph(3, 16, 5)
	p, err := NewProblem(g, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PSOConfig{SwarmSize: 24, Iterations: 30, Seed: 3, NeighborhoodK: 2}
	a, err := NewPSO(cfg).Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(a); err != nil {
		t.Fatal(err)
	}
	// lbest must never be worse than the seeded baselines.
	neutrams, err := Solve(Neutrams{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost(a) > neutrams.Cost {
		t.Fatalf("lbest PSO (%d) worse than NEUTRAMS (%d)", p.Cost(a), neutrams.Cost)
	}
}

func TestPSOLbestDeterminism(t *testing.T) {
	g := chainGraph(2, 12, 3)
	p, err := NewProblem(g, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PSOConfig{SwarmSize: 16, Iterations: 20, Seed: 9, NeighborhoodK: 1}
	a1, err := NewPSO(cfg).Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	a2, err := NewPSO(cfg).Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("lbest PSO must be deterministic across worker counts")
	}
}

func TestPSOSeedingGuaranteesBaselineQuality(t *testing.T) {
	// With seeding on, the PSO result can never be worse than PACMAN,
	// Greedy or NEUTRAMS, even with a tiny budget.
	g := chainGraph(4, 20, 4)
	p, err := NewProblem(g, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	pso, err := Solve(NewPSO(PSOConfig{SwarmSize: 5, Iterations: 2, Seed: 1}), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []Partitioner{Pacman{}, Greedy{}, Neutrams{}} {
		res, err := Solve(base, p)
		if err != nil {
			t.Fatal(err)
		}
		if pso.Cost > res.Cost {
			t.Fatalf("seeded PSO (%d) worse than %s (%d)", pso.Cost, base.Name(), res.Cost)
		}
	}
}

func TestPSODisableSeedingStillFeasible(t *testing.T) {
	g := chainGraph(3, 10, 2)
	p, err := NewProblem(g, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPSO(PSOConfig{SwarmSize: 10, Iterations: 10, Seed: 4, DisableSeeding: true}).Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(a); err != nil {
		t.Fatal(err)
	}
}

func TestPSOConfigDefaultsFilled(t *testing.T) {
	pso := NewPSO(PSOConfig{})
	def := DefaultPSOConfig()
	if pso.Cfg.SwarmSize != def.SwarmSize || pso.Cfg.Iterations != def.Iterations ||
		pso.Cfg.Phi1 != def.Phi1 || pso.Cfg.Phi2 != def.Phi2 ||
		pso.Cfg.Inertia != def.Inertia || pso.Cfg.VMax != def.VMax {
		t.Fatalf("defaults not filled: %+v", pso.Cfg)
	}
}

func TestPSOInvalidConfigRejected(t *testing.T) {
	g := chainGraph(2, 4, 1)
	p, err := NewProblem(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := &PSO{Cfg: PSOConfig{SwarmSize: 0, Iterations: 10}}
	if _, err := bad.Partition(p); err == nil {
		t.Fatal("zero swarm must be rejected")
	}
	bad2 := &PSO{Cfg: PSOConfig{SwarmSize: 10, Iterations: 0}}
	if _, err := bad2.Partition(p); err == nil {
		t.Fatal("zero iterations must be rejected")
	}
}

func TestSwapDeltaMatchesFullRecompute(t *testing.T) {
	g := chainGraph(3, 8, 4)
	p, err := NewProblem(g, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := Assignment{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}
	if err := p.Validate(a); err != nil {
		t.Fatal(err)
	}
	base := p.Cost(a)
	for i := 0; i < len(a); i += 3 {
		for j := 1; j < len(a); j += 5 {
			if a[i] == a[j] {
				continue
			}
			delta := p.SwapDelta(a, i, j)
			b := a.Clone()
			b[i], b[j] = b[j], b[i]
			if base+delta != p.Cost(b) {
				t.Fatalf("swap(%d,%d): delta %d but cost %d -> %d", i, j, delta, base, p.Cost(b))
			}
		}
	}
	// Swapping within the same crossbar or with itself is free.
	if p.SwapDelta(a, 0, 1) != 0 || p.SwapDelta(a, 5, 5) != 0 {
		t.Fatal("degenerate swaps must cost 0")
	}
}

// TestPSOWorkCount pins the work one PSO run computes: a fitness
// evaluation per particle at start and per particle-iteration, and one
// sigmoid per open (neuron, crossbar) pair of every repair, an
// exponential unless the velocity sits on the ±VMax clamp. The counts
// depend only on the problem and the configuration, never on the worker
// count.
func TestPSOWorkCount(t *testing.T) {
	g := chainGraph(3, 16, 5)
	p, err := NewProblem(g, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	// The frozen PSO computes all 44,184 exponentials; the 2,390 on the
	// clamp are now two precomputed values.
	want := psoWork{fitness: 12 * 21, sigmoids: 41794, clampHits: 2390}
	for _, workers := range []int{1, 3} {
		_, got, err := NewPSO(PSOConfig{SwarmSize: 12, Iterations: 20, Seed: 5, Workers: workers}).solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: work %+v, want %+v", workers, got, want)
		}
	}
}
