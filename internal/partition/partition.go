// Package partition implements the paper's primary contribution: the
// partitioning of a trained SNN into local synapses (mapped inside
// crossbars) and global synapses (mapped on the time-multiplexed
// interconnect), minimizing the number of spikes on the interconnect
// (paper §III, Eq. 1–8).
//
// The core algorithm is an instantiation of binary particle swarm
// optimization (PSO). The package also provides the two baselines the paper
// compares against — PACMAN (hierarchical population filling, SpiNNaker's
// mapper) and NEUTRAMS (traffic-oblivious balanced mapping) — plus
// additional optimizers (greedy, Kernighan–Lin refinement, simulated
// annealing, genetic algorithm) used for the ablation studies.
package partition

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Assignment maps every neuron to a crossbar index in [0, C). It is the
// binarized PSO position: assignment[i] = k means x̂_{i,k} = 1 (paper Eq. 3
// under constraint Eq. 4).
type Assignment []int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// Problem is one partitioning instance: a spike graph to distribute over C
// crossbars of capacity Nc (paper §III).
type Problem struct {
	Graph *graph.SpikeGraph
	// Crossbars is C, the number of crossbars.
	Crossbars int
	// CrossbarSize is Nc, the maximum neurons per crossbar (Eq. 5).
	CrossbarSize int

	counts []int64      // spikes per neuron
	csr    *graph.CSR   // out-adjacency
	in     *graph.InCSR // in-adjacency, for deltas
	// active lists the neurons that spike and have an outgoing synapse,
	// the only ones whose synapses can put traffic on the interconnect,
	// except those in shared.
	active []int32
	// shared holds the runs of two or more consecutive spiking neurons
	// with one post list (the neurons of a fully connected layer): Cost
	// reads a shared list once per assignment.
	shared []fanRun
}

// fanRun is a run of spiking neurons with identical post lists.
type fanRun struct {
	posts   []int32
	members []int32
}

// NewProblem validates the instance and precomputes the fitness structures.
// The adjacencies are the graph's own CSR and memoized in-adjacency,
// shared by every Problem over the graph.
func NewProblem(g *graph.SpikeGraph, crossbars, crossbarSize int) (*Problem, error) {
	if g == nil {
		return nil, errors.New("partition: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if crossbars < 1 {
		return nil, fmt.Errorf("partition: %d crossbars", crossbars)
	}
	if crossbarSize < 1 {
		return nil, fmt.Errorf("partition: crossbar size %d", crossbarSize)
	}
	if g.Neurons > crossbars*crossbarSize {
		return nil, fmt.Errorf("partition: %d neurons exceed capacity %d×%d", g.Neurons, crossbars, crossbarSize)
	}
	p := &Problem{
		Graph:        g,
		Crossbars:    crossbars,
		CrossbarSize: crossbarSize,
		counts:       g.SpikeCounts(),
		csr:          &g.CSR,
		in:           g.InCSR(),
	}
	n := g.Neurons
	var run fanRun
	flush := func() {
		if len(run.members) > 1 {
			p.shared = append(p.shared, run)
		} else {
			p.active = append(p.active, run.members...)
		}
	}
	for i := 0; i < n; i++ {
		posts := p.csr.OutPost(i)
		if p.counts[i] == 0 || len(posts) == 0 {
			continue
		}
		if !slices.Equal(posts, run.posts) {
			flush()
			run = fanRun{posts: posts}
		}
		run.members = append(run.members, int32(i))
	}
	flush()
	return p, nil
}

// Validate checks the PSO constraints (paper Eq. 4–5): every neuron is
// assigned to exactly one crossbar in range, and no crossbar exceeds Nc
// neurons.
func (p *Problem) Validate(a Assignment) error {
	if len(a) != p.Graph.Neurons {
		return fmt.Errorf("partition: assignment covers %d of %d neurons", len(a), p.Graph.Neurons)
	}
	loads := make([]int, p.Crossbars)
	for i, k := range a {
		if k < 0 || k >= p.Crossbars {
			return fmt.Errorf("partition: neuron %d assigned to crossbar %d outside [0,%d)", i, k, p.Crossbars)
		}
		loads[k]++
	}
	for k, l := range loads {
		if l > p.CrossbarSize {
			return fmt.Errorf("partition: crossbar %d holds %d neurons > Nc=%d", k, l, p.CrossbarSize)
		}
	}
	return nil
}

// Loads returns the number of neurons per crossbar.
func (p *Problem) Loads(a Assignment) []int {
	loads := make([]int, p.Crossbars)
	for _, k := range a {
		if k >= 0 && k < p.Crossbars {
			loads[k]++
		}
	}
	return loads
}

// Cost evaluates the PSO fitness F (paper Eq. 7–8): the total number of
// spikes communicated between distinct crossbars. Every synapse whose
// endpoints are on different crossbars contributes the spike count of its
// pre-synaptic neuron.
func (p *Problem) Cost(a Assignment) int64 {
	var total int64
	for _, i := range p.active {
		total += p.outTraffic(a, i, p.csr.OutPost(int(i)))
	}
	var hist [histCrossbars]int32
	for _, run := range p.shared {
		if !p.histogram(&hist, a, run.posts) {
			for _, i := range run.members {
				total += p.outTraffic(a, i, run.posts)
			}
			continue
		}
		// A member's crossing synapses are the posts off its crossbar.
		for _, i := range run.members {
			crossing := int64(len(run.posts))
			if k := a[i]; uint(k) < uint(p.Crossbars) {
				crossing -= int64(hist[k])
			}
			total += crossing * p.counts[i]
		}
	}
	return total
}

// outTraffic is the spikes neuron i sends over the interconnect to posts.
func (p *Problem) outTraffic(a Assignment, i int32, posts []int32) int64 {
	ai, ci := a[i], p.counts[i]
	var total int64
	for _, post := range posts {
		if a[post] != ai {
			total += ci
		}
	}
	return total
}

// histCrossbars bounds the crossbar count whose per-crossbar post counts
// Cost keeps on the stack.
const histCrossbars = 64

// histogram fills hist[k] with the number of posts on crossbar k. It
// reports false, and Cost counts directly, when C exceeds histCrossbars
// or a post is assigned outside [0, C).
func (p *Problem) histogram(hist *[histCrossbars]int32, a Assignment, posts []int32) bool {
	if p.Crossbars > histCrossbars {
		return false
	}
	h := hist[:p.Crossbars]
	clear(h)
	for _, post := range posts {
		k := a[post]
		if uint(k) >= uint(len(h)) {
			return false
		}
		h[k]++
	}
	return true
}

// CostDelta returns Cost(a with neuron moved to dst) − Cost(a) without
// mutating a. It runs in O(degree(neuron)).
func (p *Problem) CostDelta(a Assignment, neuron, dst int) int64 {
	src := a[neuron]
	if src == dst {
		return 0
	}
	var delta int64
	cn := p.counts[neuron]
	// Outgoing synapses: crossing state flips based on the post location.
	for _, post := range p.csr.OutPost(neuron) {
		post := int(post)
		if post == neuron {
			continue
		}
		was := a[post] != src
		now := a[post] != dst
		if was != now {
			if now {
				delta += cn
			} else {
				delta -= cn
			}
		}
	}
	// Incoming synapses.
	for _, pre := range p.in.InPre(neuron) {
		pre := int(pre)
		if pre == neuron {
			continue
		}
		was := a[pre] != src
		now := a[pre] != dst
		if was != now {
			if now {
				delta += p.counts[pre]
			} else {
				delta -= p.counts[pre]
			}
		}
	}
	return delta
}

// SwapDelta returns the cost change of exchanging the crossbars of neurons
// i and j without mutating a. Swaps keep crossbar loads constant, which
// makes them the only available move when every crossbar is full.
func (p *Problem) SwapDelta(a Assignment, i, j int) int64 {
	ki, kj := a[i], a[j]
	if ki == kj || i == j {
		return 0
	}
	d1 := p.CostDelta(a, i, kj)
	a[i] = kj
	d2 := p.CostDelta(a, j, ki)
	a[i] = ki
	return d1 + d2
}

// TrafficMatrix returns spikes(k1, k2) for all crossbar pairs (paper
// Eq. 7): entry [k1][k2] is the number of spikes travelling from crossbar
// k1 to crossbar k2 over the interconnect. Diagonal entries are zero.
func (p *Problem) TrafficMatrix(a Assignment) [][]int64 {
	m := make([][]int64, p.Crossbars)
	for k := range m {
		m[k] = make([]int64, p.Crossbars)
	}
	for i := 0; i < p.Graph.Neurons; i++ {
		ai := a[i]
		ci := p.counts[i]
		if ci == 0 {
			continue
		}
		for _, post := range p.csr.OutPost(i) {
			if aj := a[post]; aj != ai {
				m[ai][aj] += ci
			}
		}
	}
	return m
}

// GlobalSynapseCount counts the synapses mapped onto the interconnect
// under the assignment (pre and post on different crossbars); the
// complement is the number of local synapses.
func (p *Problem) GlobalSynapseCount(a Assignment) int {
	n := 0
	for i := 0; i < p.Graph.Neurons; i++ {
		for _, post := range p.csr.OutPost(i) {
			if a[i] != a[post] {
				n++
			}
		}
	}
	return n
}

// Partitioner produces a feasible assignment for a problem instance.
//
// The experiment engine runs techniques concurrently, so implementations
// must be safe for concurrent Partition calls on one receiver: keep all
// mutable optimization state local to the call (configuration read from
// the receiver is fine). Every partitioner in this package satisfies
// this.
type Partitioner interface {
	// Name identifies the technique in reports and benchmarks.
	Name() string
	// Partition solves the instance. Implementations must return an
	// assignment satisfying Problem.Validate.
	Partition(p *Problem) (Assignment, error)
}

// Seeded is implemented by stochastic partitioners whose search is driven
// by a seed. Reseed returns a copy of the technique configured with the
// given seed, leaving the receiver untouched — the hook seed sweeps
// (snnmap.Pipeline.RunSeeds) use to fan one configured technique out
// across independent searches. Deterministic techniques (PACMAN, NEUTRAMS,
// greedy, KL) intentionally do not implement it.
type Seeded interface {
	Partitioner
	Reseed(seed int64) Partitioner
}

// Result bundles an assignment with its fitness for reporting.
type Result struct {
	Technique string
	Assign    Assignment
	Cost      int64
}

// Solve runs a partitioner and validates + scores its output.
func Solve(pt Partitioner, p *Problem) (*Result, error) {
	a, err := pt.Partition(p)
	if err != nil {
		return nil, fmt.Errorf("partition: %s: %w", pt.Name(), err)
	}
	if err := p.Validate(a); err != nil {
		return nil, fmt.Errorf("partition: %s produced infeasible assignment: %w", pt.Name(), err)
	}
	return &Result{Technique: pt.Name(), Assign: a, Cost: p.Cost(a)}, nil
}
