package snn

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/neuron"
	"repro/internal/spike"
)

// Sim executes a Network with a clock-driven loop at 1 ms resolution,
// records every spike, applies STDP on plastic connections, and exports the
// resulting spike graph. Create with NewSim.
type Sim struct {
	net     *Network
	offsets []int // global index of the first neuron of each group
	total   int

	models []neuron.Model // nil entries for spike-source neurons

	// Flattened synapses in CSR form indexed by global source neuron.
	synStart []int32
	synDst   []int32
	synW     []float64
	synDelay []int32
	synConn  []int32 // owning connection index; nil unless some connection is plastic

	// Reverse CSR restricted to plastic synapses, for OnPost updates.
	plasticInStart []int32
	plasticInSyn   []int32 // indices into the forward arrays

	// Scheduled synaptic currents: ring[t % len(ring)][neuron].
	ring [][]float64

	// Spike-source replay state.
	sourceTrain []spike.Train // per neuron; nil for model neurons
	sourceNext  []int         // cursor into sourceTrain

	// STDP traces per neuron.
	preTrace  []neuron.Trace
	postTrace []neuron.Trace
	stdp      []neuron.STDP // per connection; zero value when not plastic

	spikes []spike.Train
	now    int64
}

// NewSim flattens the network and returns a ready simulator. The network
// must contain at least one neuron; all randomness was already resolved at
// construction time, so NewSim is deterministic.
func NewSim(net *Network) (*Sim, error) {
	if net == nil {
		return nil, errors.New("snn: nil network")
	}
	total := net.TotalNeurons()
	if total == 0 {
		return nil, errors.New("snn: empty network")
	}

	s := &Sim{net: net, total: total}
	s.offsets = make([]int, len(net.groups))
	off := 0
	for i, g := range net.groups {
		s.offsets[i] = off
		off += g.N
	}

	s.models = make([]neuron.Model, total)
	for gi, g := range net.groups {
		base := s.offsets[gi]
		for i := 0; i < g.N; i++ {
			switch {
			case g.Kind == SpikeSource:
				// no dynamics
			case g.model == ModelIzhikevich:
				s.models[base+i] = neuron.NewIzhikevich(g.izh)
			default:
				s.models[base+i] = neuron.NewLIF(g.lif)
			}
		}
	}

	// Flatten synapses into CSR by global pre index.
	maxDelay := int32(1)
	counts := make([]int32, total+1)
	nSyn := 0
	for _, c := range net.conns {
		srcBase := s.offsets[c.Src.ID]
		for _, e := range c.Edges {
			counts[srcBase+int(e.SrcLocal)+1]++
			if e.DelayMs > maxDelay {
				maxDelay = e.DelayMs
			}
			nSyn++
		}
	}
	s.synStart = counts
	for i := 1; i <= total; i++ {
		s.synStart[i] += s.synStart[i-1]
	}
	s.synDst = make([]int32, nSyn)
	s.synW = make([]float64, nSyn)
	s.synDelay = make([]int32, nSyn)
	s.stdp = make([]neuron.STDP, len(net.conns))
	anyPlastic := false
	for ci, c := range net.conns {
		if c.Plastic {
			s.stdp[ci] = neuron.STDP{P: c.STDP}
			anyPlastic = true
		}
	}
	if anyPlastic {
		s.synConn = make([]int32, nSyn)
	}
	cursor := make([]int32, total)
	copy(cursor, s.synStart[:total])
	for ci, c := range net.conns {
		srcBase := s.offsets[c.Src.ID]
		dstBase := s.offsets[c.Dst.ID]
		for _, e := range c.Edges {
			src := srcBase + int(e.SrcLocal)
			k := cursor[src]
			cursor[src]++
			s.synDst[k] = int32(dstBase + int(e.DstLocal))
			s.synW[k] = e.Weight
			s.synDelay[k] = e.DelayMs
			if s.synConn != nil {
				s.synConn[k] = int32(ci)
			}
		}
	}

	// Reverse CSR over plastic synapses only.
	if anyPlastic {
		inCounts := make([]int32, total+1)
		for k := 0; k < nSyn; k++ {
			if net.conns[s.synConn[k]].Plastic {
				inCounts[s.synDst[k]+1]++
			}
		}
		s.plasticInStart = inCounts
		for i := 1; i <= total; i++ {
			s.plasticInStart[i] += s.plasticInStart[i-1]
		}
		s.plasticInSyn = make([]int32, s.plasticInStart[total])
		inCursor := make([]int32, total)
		copy(inCursor, s.plasticInStart[:total])
		for k := 0; k < nSyn; k++ {
			if net.conns[s.synConn[k]].Plastic {
				d := s.synDst[k]
				s.plasticInSyn[inCursor[d]] = int32(k)
				inCursor[d]++
			}
		}
		s.preTrace = make([]neuron.Trace, total)
		s.postTrace = make([]neuron.Trace, total)
		for _, c := range net.conns {
			if !c.Plastic {
				continue
			}
			srcBase := s.offsets[c.Src.ID]
			dstBase := s.offsets[c.Dst.ID]
			for i := 0; i < c.Src.N; i++ {
				s.preTrace[srcBase+i] = neuron.NewTrace(c.STDP.TauPlusMs)
			}
			for i := 0; i < c.Dst.N; i++ {
				s.postTrace[dstBase+i] = neuron.NewTrace(c.STDP.TauMinus)
			}
		}
	}

	s.ring = make([][]float64, maxDelay+1)
	for i := range s.ring {
		s.ring[i] = make([]float64, total)
	}

	s.sourceTrain = make([]spike.Train, total)
	s.sourceNext = make([]int, total)
	s.spikes = make([]spike.Train, total)
	return s, nil
}

// GlobalID returns the global neuron index of neuron local within group g.
func (s *Sim) GlobalID(g *Group, local int) (int, error) {
	if g == nil || g.net != s.net {
		return 0, errors.New("snn: group not part of this simulation")
	}
	if local < 0 || local >= g.N {
		return 0, fmt.Errorf("snn: local index %d out of range for group %q", local, g.Name)
	}
	return s.offsets[g.ID] + local, nil
}

// SetSpikeTrains installs replay trains for a spike-source group. The slice
// must have one train per neuron of the group.
func (s *Sim) SetSpikeTrains(g *Group, trains []spike.Train) error {
	if g == nil || g.net != s.net {
		return errors.New("snn: group not part of this simulation")
	}
	if g.Kind != SpikeSource {
		return fmt.Errorf("snn: group %q is not a spike source", g.Name)
	}
	if len(trains) != g.N {
		return fmt.Errorf("snn: %d trains for group of %d neurons", len(trains), g.N)
	}
	base := s.offsets[g.ID]
	for i, t := range trains {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("snn: train %d: %w", i, err)
		}
		s.sourceTrain[base+i] = t
		s.sourceNext[base+i] = 0
	}
	return nil
}

// Now returns the current simulation time in ms.
func (s *Sim) Now() int64 { return s.now }

// Run advances the simulation by durationMs milliseconds.
func (s *Sim) Run(durationMs int64) error {
	if durationMs < 0 {
		return errors.New("snn: negative duration")
	}
	ringLen := int64(len(s.ring))
	end := s.now + durationMs
	fired := make([]int32, 0, 256)
	for t := s.now; t < end; t++ {
		slot := s.ring[t%ringLen]
		fired = fired[:0]

		for i := 0; i < s.total; i++ {
			if m := s.models[i]; m != nil {
				if m.Step(slot[i]) {
					fired = append(fired, int32(i))
				}
			} else {
				// Spike source: replay.
				tr := s.sourceTrain[i]
				cur := s.sourceNext[i]
				for cur < len(tr) && tr[cur] < t {
					cur++ // skip spikes scheduled before attachment
				}
				if cur < len(tr) && tr[cur] == t {
					fired = append(fired, int32(i))
					cur++
				}
				s.sourceNext[i] = cur
			}
			slot[i] = 0
		}

		for _, i := range fired {
			s.spikes[i] = append(s.spikes[i], t)
			// Propagate through outgoing synapses.
			for k := s.synStart[i]; k < s.synStart[i+1]; k++ {
				dst := s.synDst[k]
				s.ring[(t+int64(s.synDelay[k]))%ringLen][dst] += s.synW[k]
				if s.preTrace != nil && s.net.conns[s.synConn[k]].Plastic {
					// Pre spike: depression against the post trace.
					s.synW[k] = s.stdp[s.synConn[k]].OnPre(s.synW[k], &s.postTrace[dst], t)
				}
			}
			// Post-side STDP: potentiation of plastic incoming synapses.
			if s.plasticInStart != nil {
				for q := s.plasticInStart[i]; q < s.plasticInStart[i+1]; q++ {
					k := s.plasticInSyn[q]
					pre := findPre(s.synStart, k)
					s.synW[k] = s.stdp[s.synConn[k]].OnPost(s.synW[k], &s.preTrace[pre], t)
				}
			}
		}

		// Bump traces after weight updates so simultaneous pre/post
		// spikes use pre-update trace values.
		if s.preTrace != nil {
			for _, i := range fired {
				s.preTrace[i].Bump(t)
				s.postTrace[i].Bump(t)
			}
		}
	}
	s.now = end
	return nil
}

// findPre locates the source neuron of synapse k via binary search over the
// CSR start offsets.
func findPre(start []int32, k int32) int32 {
	lo, hi := 0, len(start)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if start[mid] <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// Spikes returns the recorded spike trains of all neurons (global index
// order). The returned slices alias the simulator's records.
func (s *Sim) Spikes() []spike.Train { return s.spikes }

// GroupSpikes returns the recorded spike trains of one group.
func (s *Sim) GroupSpikes(g *Group) ([]spike.Train, error) {
	if g == nil || g.net != s.net {
		return nil, errors.New("snn: group not part of this simulation")
	}
	base := s.offsets[g.ID]
	return s.spikes[base : base+g.N], nil
}

// SynapseWeights returns a snapshot of the current synaptic weights in
// flattened CSR order (useful for inspecting STDP results).
func (s *Sim) SynapseWeights() []float64 {
	out := make([]float64, len(s.synW))
	copy(out, s.synW)
	return out
}

// exportHook, when set, sees every simulator whose graph Graph exports.
// The frozen-simulator tests use it to replay an application's network
// through the reference build; it is nil otherwise.
var exportHook func(*Sim)

// Graph exports the simulated network and its recorded spikes as the spike
// graph consumed by the partitioning framework. The graph's CSR is the
// simulator's own synapse layout, shared rather than copied: NewSim fills
// synStart and synDst and nothing writes them afterwards (STDP only moves
// weights, which the graph does not keep). Spike trains are deep-copied.
func (s *Sim) Graph() (*graph.SpikeGraph, error) {
	if exportHook != nil {
		exportHook(s)
	}
	g := &graph.SpikeGraph{
		Neurons:    s.total,
		CSR:        graph.CSR{Start: s.synStart, Post: s.synDst},
		DurationMs: s.now,
	}
	g.Spikes = make([]spike.Train, s.total)
	for i, t := range s.spikes {
		g.Spikes[i] = t.Clone()
	}
	g.Groups = make([]graph.Group, len(s.net.groups))
	for i, grp := range s.net.groups {
		g.Groups[i] = graph.Group{
			Name:  grp.Name,
			Kind:  grp.Kind.String(),
			Start: s.offsets[i],
			N:     grp.N,
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("snn: exported graph invalid: %w", err)
	}
	return g, nil
}
