package partition

// affinity is the incremental Eq. 7–8 evaluator behind Refine, the
// pairwise-cut counterpart of HyperState. aff[i*C+k] holds the spikes
// neuron i exchanges with its synaptic neighbours on crossbar k, counting
// both directions and every parallel synapse, self-loops excluded. A move
// rewrites one entry pair in each neighbour's row, O(degree); in exchange
// a move or swap is scored in O(1) instead of re-walking the adjacency for
// every candidate. Problem.CostDelta and Problem.SwapDelta stay the
// full-recompute oracle the state is verified against.
//
// The state works on the caller's assignment in place.
type affinity struct {
	p    *Problem
	a    Assignment
	aff  []int64
	cost int64
	// exch[j] is the spikes exchanged between the neuron last gathered
	// and j, over all parallel synapses in both directions; zero after
	// release.
	exch []int64
}

// newAffinity builds the table for a (valid) assignment in O(synapses).
func newAffinity(p *Problem, a Assignment) *affinity {
	n, C := p.Graph.Neurons, p.Crossbars
	s := &affinity{p: p, a: a, aff: make([]int64, n*C), exch: make([]int64, n)}
	for i := 0; i < n; i++ {
		ci := p.counts[i]
		if ci == 0 {
			continue
		}
		for _, post := range p.csr.OutPost(i) {
			j := int(post)
			if j == i {
				continue
			}
			s.aff[i*C+a[j]] += ci
			s.aff[j*C+a[i]] += ci
			if a[j] != a[i] {
				s.cost += ci
			}
		}
	}
	return s
}

// moveDelta equals p.CostDelta(a, i, dst).
func (s *affinity) moveDelta(i, dst int) int64 {
	row := s.aff[i*s.p.Crossbars:]
	return row[s.a[i]] - row[dst]
}

// gather scatters into exch the spikes i exchanges with each synaptic
// neighbour; swapDelta(i, ·) reads it until release(i) clears it.
func (s *affinity) gather(i int) {
	if ci := s.p.counts[i]; ci != 0 {
		for _, post := range s.p.csr.OutPost(i) {
			s.exch[post] += ci
		}
	}
	for _, pre := range s.p.in.InPre(i) {
		s.exch[pre] += s.p.counts[pre]
	}
}

// release clears what gather(i) scattered.
func (s *affinity) release(i int) {
	for _, post := range s.p.csr.OutPost(i) {
		s.exch[post] = 0
	}
	for _, pre := range s.p.in.InPre(i) {
		s.exch[pre] = 0
	}
}

// swapDelta equals p.SwapDelta(a, i, j); i must be the gathered neuron.
// Moving i onto j's crossbar first shifts exch[j] in j's own row from
// j's crossbar side to i's, hence the 2·exch[j] term.
func (s *affinity) swapDelta(i, j int) int64 {
	ki, kj := s.a[i], s.a[j]
	if ki == kj {
		return 0
	}
	C := s.p.Crossbars
	ri, rj := s.aff[i*C:], s.aff[j*C:]
	return ri[ki] - ri[kj] + rj[kj] - rj[ki] + 2*s.exch[j]
}

// move puts neuron i on crossbar dst, updating the neighbours' rows and
// the running cost in O(degree(i)).
func (s *affinity) move(i, dst int) {
	src := s.a[i]
	if src == dst {
		return
	}
	C := s.p.Crossbars
	s.cost += s.moveDelta(i, dst)
	if ci := s.p.counts[i]; ci != 0 {
		for _, post := range s.p.csr.OutPost(i) {
			if j := int(post); j != i {
				s.aff[j*C+src] -= ci
				s.aff[j*C+dst] += ci
			}
		}
	}
	for _, pre := range s.p.in.InPre(i) {
		if j := int(pre); j != i {
			cj := s.p.counts[j]
			s.aff[j*C+src] -= cj
			s.aff[j*C+dst] += cj
		}
	}
	s.a[i] = dst
}
