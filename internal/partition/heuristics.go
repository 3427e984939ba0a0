package partition

import (
	"cmp"
	"fmt"
	"slices"
)

// Greedy is a deterministic traffic-aware heuristic used as an ablation
// reference: neurons are placed in descending order of total incident
// traffic, each onto the open crossbar that minimizes the incremental cut
// cost against already-placed neighbors.
type Greedy struct{}

// Name implements Partitioner.
func (Greedy) Name() string { return "Greedy" }

// Partition implements Partitioner.
func (Greedy) Partition(p *Problem) (Assignment, error) {
	n := p.Graph.Neurons
	a := make(Assignment, n)
	for i := range a {
		a[i] = -1
	}
	loads := make([]int, p.Crossbars)

	// Total traffic incident to each neuron: outgoing spikes × fan-out
	// plus incoming traffic.
	weight := make([]int64, n)
	for i := 0; i < n; i++ {
		weight[i] += p.counts[i] * int64(len(p.csr.OutPost(i)))
		for _, pre := range p.in.InPre(i) {
			weight[i] += p.counts[pre]
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Heaviest first, ties in index order: a total order, so an unstable
	// sort yields what a stable sort of the identity by weight would.
	slices.SortFunc(order, func(x, y int) int { return cmp.Or(cmp.Compare(weight[y], weight[x]), cmp.Compare(x, y)) })

	// gain[k] is the traffic to and from already-placed neighbors on k,
	// scattered in one pass over the neuron's adjacency.
	gain := make([]int64, p.Crossbars)
	for _, i := range order {
		ci := p.counts[i]
		for _, post := range p.csr.OutPost(i) {
			if k := a[post]; k >= 0 {
				gain[k] += ci
			}
		}
		for _, pre := range p.in.InPre(i) {
			if k := a[pre]; k >= 0 {
				gain[k] += p.counts[pre]
			}
		}
		bestK, bestGain := -1, int64(0)
		for k, g := range gain {
			if loads[k] >= p.CrossbarSize {
				continue
			}
			// Prefer higher affinity; tie-break on lower load for balance.
			if bestK < 0 || g > bestGain || (g == bestGain && loads[k] < loads[bestK]) {
				bestK, bestGain = k, g
			}
		}
		clear(gain)
		if bestK < 0 {
			return nil, fmt.Errorf("partition: greedy ran out of capacity at neuron %d", i)
		}
		a[i] = bestK
		loads[bestK]++
	}
	return a, nil
}

// KLRefine wraps another partitioner with a Kernighan–Lin-style pairwise
// improvement pass: repeatedly try the best single-neuron move or swap that
// reduces the cut, until a local optimum or MaxPasses is reached. Used in
// ablations to measure how far the PSO is from a strong local search.
type KLRefine struct {
	// Base produces the initial assignment.
	Base Partitioner
	// MaxPasses bounds the number of full improvement sweeps (default 8).
	MaxPasses int
}

// Name implements Partitioner.
func (k KLRefine) Name() string { return k.Base.Name() + "+KL" }

// Partition implements Partitioner.
func (k KLRefine) Partition(p *Problem) (Assignment, error) {
	a, err := k.Base.Partition(p)
	if err != nil {
		return nil, err
	}
	passes := k.MaxPasses
	if passes <= 0 {
		passes = 8
	}
	Refine(p, a, passes)
	return a, nil
}

// Refine greedily applies improving single-neuron moves (into crossbars
// with spare capacity) and improving swaps with synaptic neighbors (which
// work even at full capacity) until no change improves or maxPasses sweeps
// have run. The assignment is modified in place; the return value is the
// total cost reduction. Candidates are scored in O(1) each from the
// incremental affinity table, so a sweep costs O(synapses + n·C).
func Refine(p *Problem, a Assignment, maxPasses int) int64 {
	loads := p.Loads(a)
	s := newAffinity(p, a)
	start := s.cost
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < p.Graph.Neurons; i++ {
			bestDelta := int64(0)
			bestK := -1
			for k := 0; k < p.Crossbars; k++ {
				if k == a[i] || loads[k] >= p.CrossbarSize {
					continue
				}
				if d := s.moveDelta(i, k); d < bestDelta {
					bestDelta, bestK = d, k
				}
			}
			if bestK >= 0 {
				loads[a[i]]--
				loads[bestK]++
				s.move(i, bestK)
				improved = true
				continue
			}
			// No relocation improves: try swapping with synaptic
			// neighbors on other crossbars.
			bestJ := -1
			bestDelta = 0
			s.gather(i)
			consider := func(j int) {
				if j == i || a[j] == a[i] {
					return
				}
				if d := s.swapDelta(i, j); d < bestDelta {
					bestDelta, bestJ = d, j
				}
			}
			for _, post := range p.csr.OutPost(i) {
				consider(int(post))
			}
			for _, pre := range p.in.InPre(i) {
				consider(int(pre))
			}
			s.release(i)
			if bestJ >= 0 {
				ki, kj := a[i], a[bestJ]
				s.move(i, kj)
				s.move(bestJ, ki)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return start - s.cost
}
