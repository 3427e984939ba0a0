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
// evaluation per particle at start and per particle-iteration, and the
// repair rows the table's squeeze could not decide, which alone compute
// exact sigmoids (an exponential unless the velocity sits on the ±VMax
// clamp). The counts depend only on the problem and the configuration,
// never on the worker count.
func TestPSOWorkCount(t *testing.T) {
	for _, tc := range []struct {
		layers, width, rate, c, size int
		want                         psoWork
	}{
		// The frozen PSO computes 44,184 exponentials here; the squeeze
		// decides every one of its 11,952 rows.
		{3, 16, 5, 4, 13, psoWork{fitness: 12 * 21}},
		// Fifteen crossbars put more prefix sums near each draw: 7 of
		// the 29,880 rows are redone exactly.
		{4, 30, 5, 15, 9, psoWork{fitness: 12 * 21, exactRows: 7, sigmoids: 92, clampHits: 4}},
	} {
		p, err := NewProblem(chainGraph(tc.layers, tc.width, tc.rate), tc.c, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			_, got, err := NewPSO(PSOConfig{SwarmSize: 12, Iterations: 20, Seed: 5, Workers: workers}).solve(p)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("C=%d workers=%d: work %+v, want %+v", tc.c, workers, got, tc.want)
			}
		}
	}
}
