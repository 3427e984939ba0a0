package snn

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/neuron"
	"repro/internal/spike"
)

// This file freezes the simulator's synapse layout from before the spike
// graph shared it: NewSim always filled synConn, and Graph copied every
// synapse into a graph.Synapse list whose CSR and in-adjacency were then
// counted from the list. checkFrozen holds the shared layout to it.

// referenceNewSim is the frozen NewSim.
func referenceNewSim(net *Network) (*Sim, error) {
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
	s.synConn = make([]int32, nSyn)
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
			s.synConn[k] = int32(ci)
		}
	}

	// Reverse CSR over plastic synapses only.
	s.stdp = make([]neuron.STDP, len(net.conns))
	anyPlastic := false
	for ci, c := range net.conns {
		if c.Plastic {
			s.stdp[ci] = neuron.STDP{P: c.STDP}
			anyPlastic = true
		}
	}
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

// referenceGraph is the frozen Sim.Graph's synapse list: every synapse in
// the simulator's pre-grouped order, with its current weight and delay.
func referenceGraph(s *Sim) []graph.Synapse {
	syn := make([]graph.Synapse, 0, len(s.synDst))
	for i := 0; i < s.total; i++ {
		for k := s.synStart[i]; k < s.synStart[i+1]; k++ {
			syn = append(syn, graph.Synapse{
				Pre:     int32(i),
				Post:    s.synDst[k],
				Weight:  s.synW[k],
				DelayMs: s.synDelay[k],
			})
		}
	}
	return syn
}

// referenceAdjacency is the frozen BuildCSR and InCSR of a synapse list:
// the list stably sorted by pre gives the out-adjacency, and the list in
// its own order grouped by post gives the in-adjacency.
func referenceAdjacency(n int, list []graph.Synapse) (start, post, inStart, inPre []int32) {
	byPre := slices.Clone(list)
	sort.SliceStable(byPre, func(a, b int) bool { return byPre[a].Pre < byPre[b].Pre })
	start, post = make([]int32, n+1), make([]int32, len(byPre))
	for k, s := range byPre {
		start[s.Pre+1]++
		post[k] = s.Post
	}
	byPost := slices.Clone(list)
	sort.SliceStable(byPost, func(a, b int) bool { return byPost[a].Post < byPost[b].Post })
	inStart, inPre = make([]int32, n+1), make([]int32, len(byPost))
	for k, s := range byPost {
		inStart[s.Post+1]++
		inPre[k] = s.Pre
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
		inStart[i] += inStart[i-1]
	}
	return start, post, inStart, inPre
}

// checkFrozen replays s's network and spike-source trains through the
// frozen NewSim for as long as s has run, and requires g (exported from
// s) to carry exactly the frozen layout: CSR offsets and posts,
// in-adjacency, spike trains, and the STDP weights behind them.
func checkFrozen(t testing.TB, s *Sim, g *graph.SpikeGraph) {
	t.Helper()
	ref, err := referenceNewSim(s.net)
	if err != nil {
		t.Fatal(err)
	}
	copy(ref.sourceTrain, s.sourceTrain)
	if err := ref.Run(s.now); err != nil {
		t.Fatal(err)
	}
	list := referenceGraph(ref)
	start, post, inStart, inPre := referenceAdjacency(ref.total, list)
	if !slices.Equal(g.CSR.Start, start) || !slices.Equal(g.CSR.Post, post) {
		t.Fatal("CSR differs from the frozen synapse list's")
	}
	if in := g.InCSR(); !slices.Equal(in.Start, inStart) || !slices.Equal(in.Pre, inPre) {
		t.Fatal("in-adjacency differs from the frozen synapse list's")
	}
	if !slices.EqualFunc(g.Spikes, ref.spikes, func(a, b spike.Train) bool { return slices.Equal(a, b) }) {
		t.Fatal("spike trains differ from the frozen simulator's")
	}
	if !slices.Equal(s.synW, ref.synW) {
		t.Fatal("synaptic weights differ from the frozen simulator's")
	}
	if g.Neurons != ref.total || g.DurationMs != ref.now {
		t.Fatalf("graph of %d neurons over %d ms, frozen %d over %d", g.Neurons, g.DurationMs, ref.total, ref.now)
	}
}

// randomNetwork draws a small network of 2–5 groups (spike sources, LIF
// and Izhikevich) joined by every connection kind with delays of 1–5 ms;
// when plastic is set, about half the connections carry STDP. It returns
// the network and Poisson trains for each spike-source group.
func randomNetwork(rng *rand.Rand, plastic bool) (*Network, map[*Group][]spike.Train, int64) {
	net := New(rng.Int63())
	dur := int64(50 + rng.Intn(150))
	inputs := map[*Group][]spike.Train{}
	groups := make([]*Group, 2+rng.Intn(4))
	for i := range groups {
		n := 1 + rng.Intn(12)
		switch {
		case i == 0 || rng.Intn(4) == 0:
			groups[i] = net.CreateSpikeSource("in", n)
			inputs[groups[i]] = spike.PoissonGroup(rng, n, 20+80*rng.Float64(), dur)
		case rng.Intn(3) == 0:
			groups[i] = net.CreateGroup("izh", n, Excitatory).SetIzhikevich(neuron.RegularSpiking)
		default:
			groups[i] = net.CreateGroup("lif", n, Kind(rng.Intn(2)))
		}
	}
	for c := 2 + rng.Intn(6); c > 0; c-- {
		src, dst := groups[rng.Intn(len(groups))], groups[rng.Intn(len(groups))]
		if dst.Kind == SpikeSource {
			continue
		}
		delay := int32(1 + rng.Intn(5))
		w := 2 + 10*rng.Float64()
		var conn *Connection
		var err error
		switch rng.Intn(4) {
		case 0:
			conn, err = net.ConnectRandom(src, dst, rng.Float64(), -w/2, w, delay)
		case 1:
			conn, err = net.ConnectFull(src, dst, w/float64(src.N), delay)
		case 2:
			if src.N != dst.N {
				continue
			}
			conn, err = net.ConnectOneToOne(src, dst, w, delay)
		default:
			edges := make([]Edge, rng.Intn(3*src.N*dst.N+1))
			for k := range edges {
				edges[k] = Edge{int32(rng.Intn(src.N)), int32(rng.Intn(dst.N)), w, int32(1 + rng.Intn(5))}
			}
			conn, err = net.ConnectCustom(src, dst, edges)
		}
		if err != nil {
			panic(err)
		}
		if plastic && rng.Intn(2) == 0 {
			conn.Plastic = true
			conn.STDP = neuron.DefaultSTDP()
		}
	}
	return net, inputs, dur
}

// TestSimMatchesFrozenLayout holds NewSim and Graph to the frozen layout
// on 200 random networks, half of them with plastic connections.
func TestSimMatchesFrozenLayout(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, inputs, dur := randomNetwork(rng, seed%2 == 1)
		sim, err := NewSim(net)
		if err != nil {
			t.Fatal(err)
		}
		for g, trains := range inputs {
			if err := sim.SetSpikeTrains(g, trains); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Run(dur); err != nil {
			t.Fatal(err)
		}
		g, err := sim.Graph()
		if err != nil {
			t.Fatal(err)
		}
		checkFrozen(t, sim, g)
	}
}
