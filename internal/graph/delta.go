package graph

import (
	"fmt"
	"sort"

	"repro/internal/spike"
)

// RateShift rescales one neuron's characterized firing rate: the
// perturbed graph keeps round(len(train)·Factor) spikes, resampled from
// the original train (see WorkloadDelta.Apply). A neuron that never
// spiked stays silent — resampling cannot invent spike times.
type RateShift struct {
	Neuron int `json:"neuron"`
	// Factor scales the spike count; must be >= 0 (0 silences the
	// neuron, 1 is a no-op, 2 doubles traffic by duplicating times).
	Factor float64 `json:"factor"`
}

// WorkloadDelta is a perturbation of a characterized workload: synapses
// appearing or disappearing and firing rates drifting, the shape of churn
// an online serving deployment sees between remap points. It never adds
// or removes neurons, so a feasible assignment for the base graph stays
// capacity-feasible (Eq. 4–5) on the perturbed one.
type WorkloadDelta struct {
	// AddSynapses are appended to their pre-synaptic neuron's out-list,
	// in order.
	AddSynapses []Synapse `json:"add_synapses,omitempty"`
	// RemoveSynapses are matched by (pre, post); each entry removes the
	// first remaining synapse with those endpoints in CSR order (the
	// base graph's synapses, before any added one), and an unmatched
	// entry is an error rather than a silent no-op.
	RemoveSynapses []Synapse `json:"remove_synapses,omitempty"`
	// RateShifts rescale spike trains per neuron; at most one shift per
	// neuron.
	RateShifts []RateShift `json:"rate_shifts,omitempty"`
}

// Empty reports whether the delta perturbs nothing.
func (d WorkloadDelta) Empty() bool {
	return len(d.AddSynapses) == 0 && len(d.RemoveSynapses) == 0 && len(d.RateShifts) == 0
}

// Apply returns a fresh graph with the delta applied; the receiver graph
// is never mutated (it may be a live session's). Spike-train resampling
// is deterministic: the shifted train's i-th spike is the original's
// ⌊i·oldLen/newLen⌋-th, so shrinking thins evenly and growing duplicates
// evenly — both preserve the non-decreasing timestamp invariant.
func (d WorkloadDelta) Apply(g *SpikeGraph) (*SpikeGraph, error) {
	if g == nil {
		return nil, fmt.Errorf("graph: delta applied to nil graph")
	}
	n := g.Neurons
	adds, err := NewCSR(n, d.AddSynapses)
	if err != nil {
		return nil, fmt.Errorf("graph: delta add: %w", err)
	}
	drop := make(map[[2]int32]int, len(d.RemoveSynapses))
	for i, s := range d.RemoveSynapses {
		if s.Pre < 0 || int(s.Pre) >= n || s.Post < 0 || int(s.Post) >= n {
			return nil, fmt.Errorf("graph: delta remove %d: synapse %d→%d out of range [0,%d)", i, s.Pre, s.Post, n)
		}
		drop[[2]int32{s.Pre, s.Post}]++
	}
	out := &SpikeGraph{
		Neurons:    n,
		CSR:        CSR{Start: make([]int32, n+1), Post: make([]int32, 0, len(g.CSR.Post)+len(adds.Post))},
		Groups:     g.Groups,
		DurationMs: g.DurationMs,
	}
	// Per pre bucket: drop the first remaining (pre, post) match per
	// removal entry, then append the added synapses in delta order.
	post := out.CSR.Post
	for i := 0; i < n; i++ {
		for _, p := range g.CSR.OutPost(i) {
			if k := [2]int32{int32(i), p}; drop[k] > 0 {
				drop[k]--
				continue
			}
			post = append(post, p)
		}
		post = append(post, adds.OutPost(i)...)
		out.CSR.Start[i+1] = int32(len(post))
	}
	out.CSR.Post = post
	for k, left := range drop {
		if left > 0 {
			return nil, fmt.Errorf("graph: delta removes %d more %d→%d synapses than exist", left, k[0], k[1])
		}
	}

	// Rate shifts: resample the listed trains, share the rest.
	shift := make(map[int]float64, len(d.RateShifts))
	for i, rs := range d.RateShifts {
		if rs.Neuron < 0 || rs.Neuron >= g.Neurons {
			return nil, fmt.Errorf("graph: delta rate shift %d: neuron %d out of range [0,%d)", i, rs.Neuron, g.Neurons)
		}
		if rs.Factor < 0 {
			return nil, fmt.Errorf("graph: delta rate shift %d: negative factor %g", i, rs.Factor)
		}
		if _, dup := shift[rs.Neuron]; dup {
			return nil, fmt.Errorf("graph: delta rate shift %d: duplicate neuron %d", i, rs.Neuron)
		}
		shift[rs.Neuron] = rs.Factor
	}
	out.Spikes = make([]spike.Train, g.Neurons)
	copy(out.Spikes, g.Spikes)
	for neuron, factor := range shift {
		out.Spikes[neuron] = resampleTrain(g.Spikes[neuron], factor)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("graph: delta produced invalid graph: %w", err)
	}
	return out, nil
}

// resampleTrain rescales a train's spike count by factor, evenly thinning
// (factor < 1) or duplicating (factor > 1) the original timestamps.
func resampleTrain(t spike.Train, factor float64) spike.Train {
	oldLen := len(t)
	if oldLen == 0 {
		return t
	}
	newLen := int(float64(oldLen)*factor + 0.5)
	if newLen == oldLen {
		return t
	}
	out := make(spike.Train, newLen)
	for i := range out {
		out[i] = t[i*oldLen/newLen]
	}
	return out
}

// Touched returns the sorted distinct neurons whose incident traffic the
// delta changes on the given (perturbed) graph: endpoints of added and
// removed synapses, plus each rate-shifted neuron and its out-neighbors
// (a rate shift rescales the weight of every synapse the neuron drives).
// These are the neurons an incremental remap must re-legalize.
func (d WorkloadDelta) Touched(g *SpikeGraph) []int {
	seen := map[int]bool{}
	for _, s := range d.AddSynapses {
		seen[int(s.Pre)] = true
		seen[int(s.Post)] = true
	}
	for _, s := range d.RemoveSynapses {
		seen[int(s.Pre)] = true
		seen[int(s.Post)] = true
	}
	if len(d.RateShifts) > 0 {
		csr := &g.CSR
		for _, rs := range d.RateShifts {
			if rs.Neuron < 0 || rs.Neuron >= g.Neurons {
				continue
			}
			seen[rs.Neuron] = true
			for _, post := range csr.OutPost(rs.Neuron) {
				seen[int(post)] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
