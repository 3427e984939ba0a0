package partition

import (
	"fmt"
	"sort"
)

// This file freezes Greedy.Partition, Refine and HyperCut.Partition as
// they were before the one-pass gain vectors and the incremental affinity
// table: every candidate crossbar scored by re-walking the neuron's
// adjacency through Problem.CostDelta, Problem.SwapDelta and
// HyperState.MoveDelta. The bodies are verbatim apart from their names;
// the equivalence tests in frozen_equiv_test.go hold the production
// partitioners bit-identical to them. Treat these functions as frozen.

// frozenGreedy is the frozen Greedy.Partition.
func frozenGreedy(p *Problem) (Assignment, error) {
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
		weight[i] += p.counts[i] * int64(len(p.csr.Out(i)))
		for q := p.inCSR.start[i]; q < p.inCSR.start[i+1]; q++ {
			weight[i] += p.inCSR.w[q]
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return weight[order[x]] > weight[order[y]] })

	for _, i := range order {
		bestK, bestGain := -1, int64(0)
		for k := 0; k < p.Crossbars; k++ {
			if loads[k] >= p.CrossbarSize {
				continue
			}
			// Affinity: traffic to/from already-placed neighbors on k.
			var gain int64
			for _, s := range p.csr.Out(i) {
				if a[s.Post] == k {
					gain += p.counts[i]
				}
			}
			for q := p.inCSR.start[i]; q < p.inCSR.start[i+1]; q++ {
				if a[p.inCSR.pre[q]] == k {
					gain += p.inCSR.w[q]
				}
			}
			// Prefer higher affinity; tie-break on lower load for balance.
			if bestK < 0 || gain > bestGain || (gain == bestGain && loads[k] < loads[bestK]) {
				bestK, bestGain = k, gain
			}
		}
		if bestK < 0 {
			return nil, fmt.Errorf("partition: greedy ran out of capacity at neuron %d", i)
		}
		a[i] = bestK
		loads[bestK]++
	}
	return a, nil
}

// frozenRefine is the frozen Refine.
func frozenRefine(p *Problem, a Assignment, maxPasses int) int64 {
	loads := p.Loads(a)
	var totalGain int64
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < p.Graph.Neurons; i++ {
			bestDelta := int64(0)
			bestK := -1
			for k := 0; k < p.Crossbars; k++ {
				if k == a[i] || loads[k] >= p.CrossbarSize {
					continue
				}
				if d := p.CostDelta(a, i, k); d < bestDelta {
					bestDelta, bestK = d, k
				}
			}
			if bestK >= 0 {
				loads[a[i]]--
				a[i] = bestK
				loads[bestK]++
				totalGain -= bestDelta
				improved = true
				continue
			}
			// No relocation improves: try swapping with synaptic
			// neighbors on other crossbars.
			bestJ := -1
			bestDelta = 0
			consider := func(j int) {
				if j == i || a[j] == a[i] {
					return
				}
				if d := p.SwapDelta(a, i, j); d < bestDelta {
					bestDelta, bestJ = d, j
				}
			}
			for _, s := range p.csr.Out(i) {
				consider(int(s.Post))
			}
			for q := p.inCSR.start[i]; q < p.inCSR.start[i+1]; q++ {
				consider(int(p.inCSR.pre[q]))
			}
			if bestJ >= 0 {
				a[i], a[bestJ] = a[bestJ], a[i]
				totalGain -= bestDelta
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return totalGain
}

// frozenHyperCut is the frozen HyperCut.Partition, seeded by frozenGreedy.
func frozenHyperCut(h HyperCut, p *Problem) (Assignment, error) {
	seed, err := frozenGreedy(p)
	if err != nil {
		return nil, err
	}
	s, err := NewHyperState(p, seed)
	if err != nil {
		return nil, err
	}
	passes := h.MaxPasses
	if passes <= 0 {
		passes = 16
	}
	n := p.Graph.Neurons
	loads := p.Loads(s.a)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			bestK, bestDelta := -1, int64(0)
			for k := 0; k < p.Crossbars; k++ {
				if k == s.a[i] || loads[k] >= p.CrossbarSize {
					continue
				}
				// Strict improvement only, lowest crossbar on ties —
				// keeps the sweep deterministic and terminating.
				if d := s.MoveDelta(i, k); d < bestDelta {
					bestDelta, bestK = d, k
				}
			}
			if bestK >= 0 {
				loads[s.a[i]]--
				s.Move(i, bestK)
				loads[bestK]++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return s.a, nil
}
