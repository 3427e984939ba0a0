package partition

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
)

// Genetic is a genetic-algorithm partitioner, the second counterpart for
// the paper's §III comparison claim. Individuals are assignments;
// reproduction uses tournament selection, uniform crossover with capacity
// repair, and single-neuron relocation mutation.
type Genetic struct {
	// Population is the number of individuals (default 60).
	Population int
	// Generations is the number of evolution steps (default 100).
	Generations int
	// TournamentK is the tournament size for parent selection (default 3).
	TournamentK int
	// MutationRate is the per-neuron relocation probability (default 0.02).
	MutationRate float64
	// Elite is the number of top individuals copied unchanged (default 2).
	Elite int
	// Seed makes the run reproducible.
	Seed int64
}

// Name implements Partitioner.
func (Genetic) Name() string { return "GA" }

// Reseed implements Seeded.
func (g Genetic) Reseed(seed int64) Partitioner {
	g.Seed = seed
	return g
}

type individual struct {
	a    Assignment
	cost int64
}

// Partition implements Partitioner.
func (g Genetic) Partition(p *Problem) (Assignment, error) {
	n := p.Graph.Neurons
	if n == 0 {
		return Assignment{}, nil
	}
	pop := g.Population
	if pop <= 0 {
		pop = 60
	}
	gens := g.Generations
	if gens <= 0 {
		gens = 100
	}
	tk := g.TournamentK
	if tk <= 0 {
		tk = 3
	}
	mut := g.MutationRate
	if mut <= 0 {
		mut = 0.02
	}
	elite := g.Elite
	if elite <= 0 {
		elite = 2
	}
	if elite > pop {
		elite = pop
	}

	rng := rand.New(rand.NewSource(g.Seed))
	people := make([]individual, pop)
	for i := range people {
		a := randomFeasible(p, rng)
		people[i] = individual{a: a, cost: p.Cost(a)}
	}
	byCost := func() {
		slices.SortStableFunc(people, func(x, y individual) int { return cmp.Compare(x.cost, y.cost) })
	}
	byCost()

	pick := func() Assignment {
		best := rng.Intn(pop)
		for t := 1; t < tk; t++ {
			c := rng.Intn(pop)
			if people[c].cost < people[best].cost {
				best = c
			}
		}
		return people[best].a
	}

	// Generations are double-buffered: next owns its own assignments,
	// which the previous generation's slot left behind, so breeding
	// overwrites buffers instead of allocating them.
	next := make([]individual, pop)
	for i := range next {
		next[i].a = make(Assignment, n)
	}
	loads := make([]int, p.Crossbars)
	for gen := 0; gen < gens; gen++ {
		for e := 0; e < elite; e++ {
			copy(next[e].a, people[e].a)
			next[e].cost = people[e].cost
		}
		for i := elite; i < pop; i++ {
			child := next[i].a
			g.crossover(p, pick(), pick(), child, loads, rng)
			g.mutate(p, child, loads, mut, rng)
			next[i].cost = p.Cost(child)
		}
		people, next = next, people
		byCost()
	}

	best := people[0]
	if err := p.Validate(best.a); err != nil {
		return nil, errors.New("partition: GA internal error: " + err.Error())
	}
	return best.a, nil
}

// crossover performs uniform crossover with on-the-fly capacity repair
// into child: each gene takes a parent's crossbar if it still has room,
// otherwise the other parent's, otherwise the least-loaded open crossbar.
// It leaves the child's per-crossbar loads in loads.
func (g Genetic) crossover(p *Problem, a, b, child Assignment, loads []int, rng *rand.Rand) {
	clear(loads)
	for i := range child {
		first, second := a[i], b[i]
		if rng.Intn(2) == 0 {
			first, second = second, first
		}
		switch {
		case loads[first] < p.CrossbarSize:
			child[i] = first
		case loads[second] < p.CrossbarSize:
			child[i] = second
		default:
			least := -1
			for k := 0; k < p.Crossbars; k++ {
				if loads[k] < p.CrossbarSize && (least < 0 || loads[k] < loads[least]) {
					least = k
				}
			}
			child[i] = least
		}
		loads[child[i]]++
	}
}

// mutate relocates random neurons to random crossbars with spare
// capacity; loads holds a's per-crossbar loads and is kept current.
func (g Genetic) mutate(p *Problem, a Assignment, loads []int, rate float64, rng *rand.Rand) {
	for i := range a {
		if rng.Float64() >= rate {
			continue
		}
		k := rng.Intn(p.Crossbars)
		if k != a[i] && loads[k] < p.CrossbarSize {
			loads[a[i]]--
			a[i] = k
			loads[k]++
		}
	}
}
