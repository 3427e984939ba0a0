package partition

import (
	"fmt"
	"sort"
)

// RemapAssignment incrementally repairs a previous assignment after a
// workload perturbation, instead of re-solving from scratch: the touched
// neurons (those whose incident traffic the perturbation changed) seed a
// worklist, each is re-legalized by its best capacity-feasible move or
// neighbor swap under the *new* problem's cost, and every applied change
// re-queues its synaptic neighborhood until the worklist drains (or
// maxPasses rounds elapse, default 8). Work scales with the drifted
// region, not the problem, by two confinements: the worklist never
// leaves the touched set — an improving move outside it is general
// optimization slack the previous solve also left behind, not drift
// repair — and relocation candidates are only the crossbars hosting a
// synaptic neighbor (any other destination turns every incident edge
// into a crossing one, so its cost delta is ≥ 0 and can never strictly
// improve), keeping one repair step O(degree²) instead of
// O(crossbars × degree).
//
// The returned assignment is a fresh slice (prev is never mutated) and
// always satisfies Problem.Validate; its cost never exceeds prev's cost
// on the new problem (only strictly improving changes are applied). That
// it also tracks a from-scratch solve on realistic drifts is empirical,
// pinned by the property harness and the remap experiment's drift sweep.
func RemapAssignment(p *Problem, prev Assignment, touched []int, maxPasses int) (Assignment, error) {
	n := p.Graph.Neurons
	if len(prev) != n {
		return nil, fmt.Errorf("partition: remap of %d-neuron assignment onto %d-neuron problem", len(prev), n)
	}
	if err := p.Validate(prev); err != nil {
		return nil, fmt.Errorf("partition: remap from infeasible assignment: %w", err)
	}
	if maxPasses <= 0 {
		maxPasses = 8
	}
	a := prev.Clone()
	loads := p.Loads(a)

	region := make([]bool, n)
	queued := make([]bool, n)
	list := make([]int, 0, len(touched))
	for _, i := range touched {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("partition: remap touched neuron %d outside [0,%d)", i, n)
		}
		if !queued[i] {
			region[i] = true
			queued[i] = true
			list = append(list, i)
		}
	}

	// Scratch for the per-neuron relocation candidate set.
	onCand := make([]bool, p.Crossbars)
	cands := make([]int, 0, p.Crossbars)

	for pass := 0; pass < maxPasses && len(list) > 0; pass++ {
		sort.Ints(list) // deterministic processing order
		var next []int
		enqueue := func(j int) {
			if region[j] && !queued[j] {
				queued[j] = true
				next = append(next, j)
			}
		}
		for _, i := range list {
			queued[i] = false
		}
		for _, i := range list {
			// Best strictly-improving relocation into spare capacity.
			// Candidates: the crossbars hosting a synaptic neighbor, sorted
			// so ties resolve to the lowest crossbar exactly as a full scan
			// would (neighborless destinations have delta ≥ 0, never win).
			cands = cands[:0]
			addCand := func(j int) {
				if k := a[j]; j != i && !onCand[k] {
					onCand[k] = true
					cands = append(cands, k)
				}
			}
			for _, post := range p.csr.OutPost(i) {
				addCand(int(post))
			}
			for _, pre := range p.in.InPre(i) {
				addCand(int(pre))
			}
			sort.Ints(cands)
			bestDelta, bestK := int64(0), -1
			for _, k := range cands {
				onCand[k] = false
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
				enqueue(i)
				for _, post := range p.csr.OutPost(i) {
					enqueue(int(post))
				}
				for _, pre := range p.in.InPre(i) {
					enqueue(int(pre))
				}
				continue
			}
			// No relocation improves (or capacity is tight): best
			// strictly-improving swap with a synaptic neighbor.
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
			for _, post := range p.csr.OutPost(i) {
				consider(int(post))
			}
			for _, pre := range p.in.InPre(i) {
				consider(int(pre))
			}
			if bestJ >= 0 {
				a[i], a[bestJ] = a[bestJ], a[i]
				for _, moved := range [2]int{i, bestJ} {
					enqueue(moved)
					for _, post := range p.csr.OutPost(moved) {
						enqueue(int(post))
					}
					for _, pre := range p.in.InPre(moved) {
						enqueue(int(pre))
					}
				}
			}
		}
		list = next
	}
	return a, nil
}
