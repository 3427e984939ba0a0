package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// This file freezes Greedy.Partition, Refine and HyperCut.Partition as
// they were before the one-pass gain vectors and the incremental affinity
// table: every candidate crossbar scored by re-walking the neuron's
// adjacency through Problem.CostDelta, Problem.SwapDelta and
// HyperState.MoveDelta. The bodies are verbatim apart from their names;
// the equivalence tests in frozen_equiv_test.go hold the production
// partitioners bit-identical to them. Treat these functions as frozen.
//
// frozenPSO freezes PSO.Partition with its step, repair and Problem.Cost
// as they were before the flat fitness arrays and the fix-up velocity
// update: one goroutine pool per iteration, a velocity formula evaluated
// at every (neuron, crossbar) pair, a sigmoid per open pair, and a Cost
// that walks graph.Synapse records. TestPSOMatchesFrozen holds PSO to it.

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
		weight[i] += p.counts[i] * int64(len(p.csr.OutPost(i)))
		for _, pre := range p.in.InPre(i) {
			weight[i] += p.counts[pre]
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
			for _, post := range p.csr.OutPost(i) {
				if a[post] == k {
					gain += p.counts[i]
				}
			}
			for _, pre := range p.in.InPre(i) {
				if a[pre] == k {
					gain += p.counts[pre]
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
			for _, post := range p.csr.OutPost(i) {
				consider(int(post))
			}
			for _, pre := range p.in.InPre(i) {
				consider(int(pre))
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

// frozenPSO is the frozen PSO.Partition; cfg is a NewPSO-filled config.
func frozenPSO(cfg PSOConfig, p *Problem) (Assignment, error) {
	if cfg.SwarmSize < 1 {
		return nil, errors.New("partition: PSO swarm size < 1")
	}
	if cfg.Iterations < 1 {
		return nil, errors.New("partition: PSO iterations < 1")
	}
	n, c := p.Graph.Neurons, p.Crossbars
	if n == 0 {
		return Assignment{}, nil
	}
	if c == 1 {
		return make(Assignment, n), nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	master := rand.New(rand.NewSource(cfg.Seed))
	var seeds []Assignment
	if !cfg.DisableSeeding {
		for _, h := range []Partitioner{Pacman{}, Greedy{}, Neutrams{}} {
			if a, err := h.Partition(p); err == nil && p.Validate(a) == nil {
				seeds = append(seeds, a)
			}
		}
	}
	swarm := make([]*frozenParticle, cfg.SwarmSize)
	for s := range swarm {
		pt := &frozenParticle{
			vel:         make([]float32, n*c),
			pos:         make(Assignment, n),
			rng:         rand.New(rand.NewSource(master.Int63())),
			loadScratch: make([]int, c),
			probScratch: make([]float64, c),
		}
		if s < len(seeds) {
			// Heuristic seed: adopt the baseline position exactly and
			// bias velocities toward it so the first repair keeps it
			// with high probability.
			copy(pt.pos, seeds[s])
			for i := 0; i < n; i++ {
				for k := 0; k < c; k++ {
					v := -cfg.VMax
					if seeds[s][i] == k {
						v = cfg.VMax
					}
					pt.vel[i*c+k] = float32(v)
				}
			}
		} else {
			for d := range pt.vel {
				pt.vel[d] = float32((pt.rng.Float64()*2 - 1) * cfg.VMax)
			}
			pt.repair(p)
		}
		pt.cost = frozenCost(p, pt.pos)
		pt.best = pt.pos.Clone()
		pt.bestCost = pt.cost
		swarm[s] = pt
	}

	gbest := swarm[0].best.Clone()
	gbestCost := swarm[0].bestCost
	for _, pt := range swarm[1:] {
		if pt.bestCost < gbestCost {
			gbestCost = pt.bestCost
			copy(gbest, pt.best)
		}
	}

	// neighborhoodBest returns the guide position for particle s: the
	// swarm-wide best (gbest PSO), or the best particle within the ring
	// neighborhood of radius K (lbest PSO).
	neighborhoodBest := func(s int) Assignment {
		if cfg.NeighborhoodK <= 0 {
			return gbest
		}
		np := len(swarm)
		best := swarm[s]
		for d := 1; d <= cfg.NeighborhoodK; d++ {
			for _, idx := range []int{(s + d) % np, (s - d + np) % np} {
				if swarm[idx].bestCost < best.bestCost {
					best = swarm[idx]
				}
			}
		}
		return best.best
	}

	type job struct {
		pt    *frozenParticle
		guide Assignment
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Snapshot guides before dispatching: workers mutate particle
		// bests concurrently, and lbest guides alias neighbours' bests.
		guides := make([]Assignment, len(swarm))
		for s := range swarm {
			if cfg.NeighborhoodK <= 0 {
				guides[s] = gbest
			} else {
				guides[s] = neighborhoodBest(s).Clone()
			}
		}

		var wg sync.WaitGroup
		work := make(chan job)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range work {
					j.pt.step(p, cfg, j.guide)
				}
			}()
		}
		for s, pt := range swarm {
			work <- job{pt: pt, guide: guides[s]}
		}
		close(work)
		wg.Wait()

		// Synchronous gbest update after the full swarm moved.
		for _, pt := range swarm {
			if pt.bestCost < gbestCost {
				gbestCost = pt.bestCost
				copy(gbest, pt.best)
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(iter, gbestCost)
		}
	}

	if err := p.Validate(gbest); err != nil {
		return nil, fmt.Errorf("partition: PSO internal error: %w", err)
	}
	return gbest, nil
}

// frozenParticle is the frozen particle.
type frozenParticle struct {
	vel         []float32 // N*C, row-major by neuron
	pos         Assignment
	cost        int64
	best        Assignment
	bestCost    int64
	rng         *rand.Rand
	loadScratch []int
	probScratch []float64
}

// step is the frozen particle.step.
func (pt *frozenParticle) step(p *Problem, cfg PSOConfig, gbest Assignment) {
	n, c := p.Graph.Neurons, p.Crossbars
	vmax := float32(cfg.VMax)
	for i := 0; i < n; i++ {
		row := pt.vel[i*c : (i+1)*c]
		xi := pt.pos[i]
		pb := pt.best[i]
		gb := gbest[i]
		r1 := pt.rng.Float64()
		r2 := pt.rng.Float64()
		for k := range row {
			x, pbx, gbx := float64(0), float64(0), float64(0)
			if xi == k {
				x = 1
			}
			if pb == k {
				pbx = 1
			}
			if gb == k {
				gbx = 1
			}
			v := cfg.Inertia*float64(row[k]) + cfg.Phi1*r1*(pbx-x) + cfg.Phi2*r2*(gbx-x)
			if v > float64(vmax) {
				v = float64(vmax)
			} else if v < -float64(vmax) {
				v = -float64(vmax)
			}
			row[k] = float32(v)
		}
	}
	pt.repair(p)
	pt.cost = frozenCost(p, pt.pos)
	if pt.cost < pt.bestCost {
		pt.bestCost = pt.cost
		copy(pt.best, pt.pos)
	}
}

// repair is the frozen particle.repair.
func (pt *frozenParticle) repair(p *Problem) {
	n, c := p.Graph.Neurons, p.Crossbars
	loads := pt.loadScratch
	for k := range loads {
		loads[k] = 0
	}
	probs := pt.probScratch
	for i := 0; i < n; i++ {
		row := pt.vel[i*c : (i+1)*c]
		var sum float64
		for k := 0; k < c; k++ {
			if loads[k] >= p.CrossbarSize {
				probs[k] = 0
				continue
			}
			probs[k] = frozenSigmoid(float64(row[k]))
			sum += probs[k]
		}
		var chosen int
		if sum <= 0 {
			// All open crossbars have vanishing probability; fall back
			// to the least loaded open crossbar.
			chosen = -1
			for k := 0; k < c; k++ {
				if loads[k] >= p.CrossbarSize {
					continue
				}
				if chosen < 0 || loads[k] < loads[chosen] {
					chosen = k
				}
			}
		} else {
			r := pt.rng.Float64() * sum
			chosen = -1
			for k := 0; k < c; k++ {
				if probs[k] <= 0 {
					continue
				}
				r -= probs[k]
				chosen = k
				if r <= 0 {
					break
				}
			}
		}
		pt.pos[i] = chosen
		loads[chosen]++
	}
}

func frozenSigmoid(v float64) float64 {
	return 1.0 / (1.0 + math.Exp(-v))
}

// frozenCost is the frozen Problem.Cost.
func frozenCost(p *Problem, a Assignment) int64 {
	var total int64
	for i := 0; i < p.Graph.Neurons; i++ {
		ai := a[i]
		ci := p.counts[i]
		if ci == 0 {
			continue
		}
		for _, post := range p.csr.OutPost(i) {
			if a[post] != ai {
				total += ci
			}
		}
	}
	return total
}
