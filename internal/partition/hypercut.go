package partition

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements the connectivity-cut hypergraph partitioner
// (registered as "hypercut"). Each presynaptic neuron's fan-out is one
// hyperedge spanning the neuron plus its post-synaptic targets
// (graph.Hypergraph); the objective is the connectivity cut
//
//	HyperCut(a) = Σ_e w_e · (λ_e(a) − 1)
//
// where λ_e is the number of distinct crossbars edge e's pins occupy and
// w_e the source's spike count. Because every pin set contains the source
// crossbar, λ_e − 1 is exactly the number of distinct *remote* destination
// crossbars, so the metric equals the per-crossbar AER injected packet
// count — the multicast traffic the NoC's word-level destination masks
// carry — rather than the pairwise per-synapse count of Eq. 7–8.
//
// The optimizer follows the PR 3 delta discipline: a full-recompute
// oracle (referenceHyperCut) is preserved verbatim, and the incremental
// pin-count state (HyperState) must stay bit-identical to it — pinned by
// the property harness for every move it evaluates or applies.

// referenceHyperCut is the preserved full-recompute oracle for the
// connectivity cut: O(pins) per call, no incremental state. The
// delta-evaluated HyperState is verified bit-identical against it;
// changes here invalidate that contract, so treat this function as
// frozen.
func referenceHyperCut(p *Problem, a Assignment) int64 {
	h := p.Graph.Hypergraph()
	stamp := make([]int, p.Crossbars)
	epoch := 0
	var cut int64
	for e := 0; e < h.Edges(); e++ {
		w := h.Weight[e]
		if w == 0 {
			continue
		}
		epoch++
		lambda := int64(0)
		for _, v := range h.PinsOf(e) {
			if k := a[v]; stamp[k] != epoch {
				stamp[k] = epoch
				lambda++
			}
		}
		cut += w * (lambda - 1)
	}
	return cut
}

// ReferenceHyperCut exposes the oracle to cross-package property
// harnesses. Production callers evaluate cuts through HyperState.
func ReferenceHyperCut(p *Problem, a Assignment) int64 {
	return referenceHyperCut(p, a)
}

// HyperState is the incremental connectivity-cut evaluator: it maintains
// per-hyperedge pin counts per crossbar so a single-neuron move is
// evaluated (MoveDelta) and applied (Move) in O(affected hyperedges) —
// the neuron's own fan-out edge plus one edge per distinct presynaptic
// neighbor — with deltas exactly equal to the oracle's full recompute.
// It owns a private copy of the assignment it was built from.
type HyperState struct {
	p *Problem
	h *graph.Hypergraph
	a Assignment

	pins   []int32 // [e*Crossbars + k]: pins of edge e on crossbar k
	lambda []int32 // distinct crossbars per edge
	cut    int64

	// Deduplicated in-adjacency: for neuron n, the distinct presynaptic
	// neighbors (excluding n itself) and the pin multiplicity n carries
	// in each neighbor's edge — all of a neuron's pins in one edge move
	// together, so deltas work per distinct edge, not per synapse.
	inStart []int32
	inPre   []int32
	inMult  []int32
	// ownPins[n] is n's pin multiplicity within its own edge: 1 (the
	// source pin) plus one per self-loop synapse.
	ownPins []int32
}

// NewHyperState builds the incremental state for an assignment. Zero-
// weight edges (silent sources) are excluded from the pin-count state —
// they cannot contribute to any cut or delta.
func NewHyperState(p *Problem, a Assignment) (*HyperState, error) {
	n := p.Graph.Neurons
	if len(a) != n {
		return nil, fmt.Errorf("partition: hyper state over %d of %d neurons", len(a), n)
	}
	for i, k := range a {
		if k < 0 || k >= p.Crossbars {
			return nil, fmt.Errorf("partition: hyper state: neuron %d on crossbar %d outside [0,%d)", i, k, p.Crossbars)
		}
	}
	h := p.Graph.Hypergraph()
	s := &HyperState{
		p:       p,
		h:       h,
		a:       a.Clone(),
		pins:    make([]int32, n*p.Crossbars),
		lambda:  make([]int32, n),
		ownPins: make([]int32, n),
		inStart: make([]int32, n+1),
	}

	// Dedup the in-adjacency: count distinct off-diagonal (pre, post)
	// pairs per post, then fill pres in ascending order with their
	// synapse multiplicities.
	csr := p.csr
	mark := make([]int32, n) // multiplicity scratch, keyed by post
	var touched []int32
	for i := 0; i < n; i++ {
		for _, post := range csr.OutPost(i) {
			if int(post) == i {
				continue
			}
			if mark[post] == 0 {
				touched = append(touched, post)
			}
			mark[post]++
		}
		for _, j := range touched {
			s.inStart[j+1]++
			mark[j] = 0
		}
		touched = touched[:0]
	}
	for j := 1; j <= n; j++ {
		s.inStart[j] += s.inStart[j-1]
	}
	s.inPre = make([]int32, s.inStart[n])
	s.inMult = make([]int32, s.inStart[n])
	cursor := make([]int32, n)
	copy(cursor, s.inStart[:n])
	for i := 0; i < n; i++ {
		for _, post := range csr.OutPost(i) {
			if int(post) == i {
				s.ownPins[i]++
				continue
			}
			if mark[post] == 0 {
				touched = append(touched, post)
			}
			mark[post]++
		}
		for _, j := range touched {
			q := cursor[j]
			cursor[j]++
			s.inPre[q] = int32(i)
			s.inMult[q] = mark[j]
			mark[j] = 0
		}
		touched = touched[:0]
		s.ownPins[i]++ // the source pin itself
	}

	// Seed pin counts, connectivities and the cut.
	for e := 0; e < n; e++ {
		w := h.Weight[e]
		if w == 0 {
			continue
		}
		base := e * p.Crossbars
		for _, v := range h.PinsOf(e) {
			k := s.a[v]
			if s.pins[base+int(k)] == 0 {
				s.lambda[e]++
			}
			s.pins[base+int(k)]++
		}
		s.cut += w * int64(s.lambda[e]-1)
	}
	return s, nil
}

// Cut returns the current connectivity cut — bit-identical to
// ReferenceHyperCut(p, s.Assignment()) at every point in a move sequence.
func (s *HyperState) Cut() int64 { return s.cut }

// Assignment returns a copy of the state's current assignment.
func (s *HyperState) Assignment() Assignment { return s.a.Clone() }

// MoveDelta returns Cut(a with neuron on dst) − Cut(a) without mutating
// the state, visiting only the hyperedges the neuron pins: its own
// fan-out edge plus one per distinct presynaptic neighbor.
func (s *HyperState) MoveDelta(neuron, dst int) int64 {
	src := s.a[neuron]
	if src == dst {
		return 0
	}
	C := s.p.Crossbars
	var delta int64
	// Moving all m of the neuron's pins in edge e raises λ_e when dst
	// held no pin and lowers it when the m pins were src's only ones.
	affected := func(e int, m int32) {
		w := s.h.Weight[e]
		if w == 0 || m == 0 {
			return
		}
		base := e * C
		if s.pins[base+dst] == 0 {
			delta += w
		}
		if s.pins[base+src] == m {
			delta -= w
		}
	}
	affected(neuron, s.ownPins[neuron])
	for q := s.inStart[neuron]; q < s.inStart[neuron+1]; q++ {
		affected(int(s.inPre[q]), s.inMult[q])
	}
	return delta
}

// moveDeltas fills d[k] with MoveDelta(neuron, k) for every crossbar k in
// one pass over the neuron's affected hyperedges. Each edge's pin row is
// contiguous, so one scan of it scores every destination: dst gains w_e
// where the row is empty, and the neuron's leaving costs w_e on every
// destination when its m pins are src's only ones. d[src] is 0.
func (s *HyperState) moveDeltas(neuron int, d []int64) {
	src := s.a[neuron]
	C := s.p.Crossbars
	clear(d)
	var leave int64
	affected := func(e int, m int32) {
		w := s.h.Weight[e]
		if w == 0 || m == 0 {
			return
		}
		row := s.pins[e*C : (e+1)*C]
		for k, c := range row {
			if c == 0 {
				d[k] += w
			}
		}
		if row[src] == m {
			leave += w
		}
	}
	affected(neuron, s.ownPins[neuron])
	for q := s.inStart[neuron]; q < s.inStart[neuron+1]; q++ {
		affected(int(s.inPre[q]), s.inMult[q])
	}
	for k := range d {
		if k != src {
			d[k] -= leave
		}
	}
}

// Move applies a single-neuron move, updating pin counts, connectivities
// and the cut incrementally in O(affected hyperedges).
func (s *HyperState) Move(neuron, dst int) {
	src := s.a[neuron]
	if src == dst {
		return
	}
	C := s.p.Crossbars
	apply := func(e int, m int32) {
		w := s.h.Weight[e]
		if w == 0 || m == 0 {
			return
		}
		base := e * C
		if s.pins[base+dst] == 0 {
			s.lambda[e]++
			s.cut += w
		}
		s.pins[base+dst] += m
		s.pins[base+src] -= m
		if s.pins[base+src] == 0 {
			s.lambda[e]--
			s.cut -= w
		}
	}
	apply(neuron, s.ownPins[neuron])
	for q := s.inStart[neuron]; q < s.inStart[neuron+1]; q++ {
		apply(int(s.inPre[q]), s.inMult[q])
	}
	s.a[neuron] = dst
}

// HyperCut is the connectivity-cut FM/KL-style partitioner: a
// traffic-aware greedy seed (Greedy) followed by passes of best
// single-neuron moves under the capacity constraint. Each step scores
// every crossbar in one pass over the neuron's affected hyperedges
// (HyperState.moveDeltas) and applies the move in O(affected hyperedges).
// It is deterministic — no stochastic component, so like the other
// deterministic techniques it intentionally does not implement Seeded.
type HyperCut struct {
	// MaxPasses bounds the number of full improvement sweeps
	// (default 16); each pass stops early once no move improves.
	MaxPasses int
}

// Name implements Partitioner.
func (HyperCut) Name() string { return "HyperCut" }

// Partition implements Partitioner.
func (h HyperCut) Partition(p *Problem) (Assignment, error) {
	seed, err := Greedy{}.Partition(p)
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
	delta := make([]int64, p.Crossbars)
	for pass := 0; pass < passes; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			s.moveDeltas(i, delta)
			bestK, bestDelta := -1, int64(0)
			for k, d := range delta {
				if k == s.a[i] || loads[k] >= p.CrossbarSize {
					continue
				}
				// Strict improvement only, lowest crossbar on ties —
				// keeps the sweep deterministic and terminating.
				if d < bestDelta {
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
