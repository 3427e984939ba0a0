// Package snn is the application-level spiking neural network simulator of
// this reproduction — the substitute for CARLsim in the paper's framework
// (paper §IV, Fig. 4). It provides a CARLsim-like builder API (groups +
// connections), a clock-driven simulator with 1 ms timesteps, synaptic
// delays, optional STDP, and spike recording. Its output is the spike graph
// (internal/graph) consumed by the partitioning framework.
package snn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/neuron"
)

// Kind classifies a neuron group.
type Kind int

// Group kinds. SpikeSource groups do not integrate dynamics; they replay
// externally supplied spike trains (CARLsim's SpikeGenerator groups).
const (
	Excitatory Kind = iota
	Inhibitory
	SpikeSource
)

// String returns the group-kind label used in exported spike graphs.
func (k Kind) String() string {
	switch k {
	case Excitatory:
		return "excitatory"
	case Inhibitory:
		return "inhibitory"
	case SpikeSource:
		return "input"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ModelKind selects the neuron dynamics of a group.
type ModelKind int

// Supported neuron models.
const (
	ModelLIF ModelKind = iota
	ModelIzhikevich
)

// Group is a population of neurons sharing a model and a role.
type Group struct {
	// ID is the group's index within its network.
	ID int
	// Name is a human-readable label carried into the spike graph.
	Name string
	// N is the number of neurons in the group.
	N int
	// Kind is the group role.
	Kind Kind

	model ModelKind
	lif   neuron.LIFParams
	izh   neuron.IzhParams
	net   *Network
}

// SetLIF selects LIF dynamics with the given parameters for the group.
func (g *Group) SetLIF(p neuron.LIFParams) *Group {
	g.model = ModelLIF
	g.lif = p
	return g
}

// SetIzhikevich selects Izhikevich dynamics with the given parameters.
func (g *Group) SetIzhikevich(p neuron.IzhParams) *Group {
	g.model = ModelIzhikevich
	g.izh = p
	return g
}

// Edge is one synapse between a source-local and destination-local neuron
// index.
type Edge struct {
	SrcLocal int32
	DstLocal int32
	Weight   float64
	DelayMs  int32
}

// Connection is a bundle of synapses between two groups.
type Connection struct {
	Src, Dst *Group
	Edges    []Edge
	// Plastic enables pair-based STDP on this connection.
	Plastic bool
	// STDP parameterizes plasticity when Plastic is true.
	STDP neuron.STDPParams
}

// Network is a CARLsim-like network under construction. Create with New,
// populate with CreateGroup/CreateSpikeSource and the Connect* methods, then
// hand to NewSim.
type Network struct {
	groups []*Group
	conns  []*Connection
	rng    *rand.Rand
}

// New returns an empty network whose random connectivity draws from the
// given seed, making construction reproducible.
func New(seed int64) *Network {
	return &Network{rng: rand.New(rand.NewSource(seed))}
}

// Groups returns the network's groups in creation order.
func (n *Network) Groups() []*Group { return n.groups }

// Connections returns the network's connections in creation order.
func (n *Network) Connections() []*Connection { return n.conns }

// CreateGroup adds a population of count neurons of the given kind with
// default dynamics (DefaultLIF for excitatory, FastLIF for inhibitory).
func (n *Network) CreateGroup(name string, count int, kind Kind) *Group {
	g := &Group{ID: len(n.groups), Name: name, N: count, Kind: kind, net: n}
	switch kind {
	case Inhibitory:
		g.SetLIF(neuron.FastLIF())
	default:
		g.SetLIF(neuron.DefaultLIF())
	}
	n.groups = append(n.groups, g)
	return g
}

// CreateSpikeSource adds a group of count spike-generator neurons whose
// trains are supplied to the simulator with Sim.SetSpikeTrains.
func (n *Network) CreateSpikeSource(name string, count int) *Group {
	g := &Group{ID: len(n.groups), Name: name, N: count, Kind: SpikeSource, net: n}
	n.groups = append(n.groups, g)
	return g
}

func (n *Network) checkGroups(src, dst *Group) error {
	if src == nil || dst == nil {
		return errors.New("snn: nil group")
	}
	if src.net != n || dst.net != n {
		return errors.New("snn: group belongs to a different network")
	}
	if dst.Kind == SpikeSource {
		return fmt.Errorf("snn: cannot connect into spike source group %q", dst.Name)
	}
	return nil
}

func (n *Network) addConn(src, dst *Group, edges []Edge, delay int32) (*Connection, error) {
	if err := n.checkGroups(src, dst); err != nil {
		return nil, err
	}
	if delay < 1 {
		return nil, fmt.Errorf("snn: delay %d ms < 1 ms", delay)
	}
	c := &Connection{Src: src, Dst: dst, Edges: edges}
	n.conns = append(n.conns, c)
	return c, nil
}

// ConnectFull creates all-to-all synapses from src to dst with the given
// weight and delay. Self-connections are skipped when src == dst.
func (n *Network) ConnectFull(src, dst *Group, weight float64, delayMs int32) (*Connection, error) {
	if err := n.checkGroups(src, dst); err != nil {
		return nil, err
	}
	edges := make([]Edge, 0, src.N*dst.N)
	for i := 0; i < src.N; i++ {
		for j := 0; j < dst.N; j++ {
			if src == dst && i == j {
				continue
			}
			edges = append(edges, Edge{int32(i), int32(j), weight, delayMs})
		}
	}
	return n.addConn(src, dst, edges, delayMs)
}

// ConnectRandom creates synapses from src to dst with independent
// probability prob per pair, drawing weights uniformly from [wMin, wMax].
// Self-connections are skipped when src == dst.
func (n *Network) ConnectRandom(src, dst *Group, prob, wMin, wMax float64, delayMs int32) (*Connection, error) {
	if err := n.checkGroups(src, dst); err != nil {
		return nil, err
	}
	if !(prob >= 0 && prob <= 1) { // NaN too: it would size the edge list from NaN
		return nil, fmt.Errorf("snn: connection probability %v outside [0,1]", prob)
	}
	pairs := src.N * dst.N
	if src == dst {
		pairs -= src.N
	}
	edges := make([]Edge, 0, expectedEdges(pairs, prob))
	for i := 0; i < src.N; i++ {
		for j := 0; j < dst.N; j++ {
			if src == dst && i == j {
				continue
			}
			if n.rng.Float64() < prob {
				w := wMin + n.rng.Float64()*(wMax-wMin)
				edges = append(edges, Edge{int32(i), int32(j), w, delayMs})
			}
		}
	}
	return n.addConn(src, dst, edges, delayMs)
}

// expectedEdges sizes a random connection's edge list: the binomial mean
// plus six standard deviations and a little headroom, capped at the pair
// count, so the list is allocated once at its final size. A count past
// the bound (about one in a billion) still appends.
func expectedEdges(pairs int, prob float64) int {
	if pairs <= 0 {
		return 0
	}
	mean := float64(pairs) * prob
	bound := mean + 6*math.Sqrt(mean*(1-prob)) + 16
	return int(min(bound, float64(pairs)))
}

// ConnectOneToOne connects neuron i of src to neuron i of dst. The groups
// must have equal size.
func (n *Network) ConnectOneToOne(src, dst *Group, weight float64, delayMs int32) (*Connection, error) {
	if err := n.checkGroups(src, dst); err != nil {
		return nil, err
	}
	if src.N != dst.N {
		return nil, fmt.Errorf("snn: one-to-one between groups of size %d and %d", src.N, dst.N)
	}
	edges := make([]Edge, src.N)
	for i := 0; i < src.N; i++ {
		edges[i] = Edge{int32(i), int32(i), weight, delayMs}
	}
	return n.addConn(src, dst, edges, delayMs)
}

// ConnectKernel2D connects two equally sized 2D grids (width×height, row
// major) through a convolution kernel: source pixel (x, y) drives
// destination (x+dx, y+dy) with weight scale·kernel[dy+r][dx+r], where r is
// the kernel radius. Out-of-bounds taps are dropped (zero padding). This is
// the connectivity of the image smoothing application (paper Table I).
func (n *Network) ConnectKernel2D(src, dst *Group, width, height int, kernel [][]float64, scale float64, delayMs int32) (*Connection, error) {
	if err := n.checkGroups(src, dst); err != nil {
		return nil, err
	}
	if src.N != width*height || dst.N != width*height {
		return nil, fmt.Errorf("snn: kernel grid %dx%d does not match group sizes %d, %d", width, height, src.N, dst.N)
	}
	k := len(kernel)
	if k == 0 || k%2 == 0 {
		return nil, fmt.Errorf("snn: kernel must have odd size, got %d", k)
	}
	for _, row := range kernel {
		if len(row) != k {
			return nil, errors.New("snn: kernel must be square")
		}
	}
	r := k / 2
	var edges []Edge
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			srcIdx := int32(y*width + x)
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					tx, ty := x+dx, y+dy
					if tx < 0 || tx >= width || ty < 0 || ty >= height {
						continue
					}
					w := scale * kernel[dy+r][dx+r]
					if w == 0 {
						continue
					}
					edges = append(edges, Edge{srcIdx, int32(ty*width + tx), w, delayMs})
				}
			}
		}
	}
	return n.addConn(src, dst, edges, delayMs)
}

// ConnectCustom installs an explicit edge list. Every edge is validated
// against the group sizes and must have delay >= 1 ms. The connection
// takes ownership of edges: the caller must not modify the slice after a
// successful call.
func (n *Network) ConnectCustom(src, dst *Group, edges []Edge) (*Connection, error) {
	if err := n.checkGroups(src, dst); err != nil {
		return nil, err
	}
	for i, e := range edges {
		if e.SrcLocal < 0 || int(e.SrcLocal) >= src.N {
			return nil, fmt.Errorf("snn: edge %d source %d out of range", i, e.SrcLocal)
		}
		if e.DstLocal < 0 || int(e.DstLocal) >= dst.N {
			return nil, fmt.Errorf("snn: edge %d destination %d out of range", i, e.DstLocal)
		}
		if e.DelayMs < 1 {
			return nil, fmt.Errorf("snn: edge %d delay %d ms < 1 ms", i, e.DelayMs)
		}
	}
	c := &Connection{Src: src, Dst: dst, Edges: edges}
	n.conns = append(n.conns, c)
	return c, nil
}

// TotalNeurons returns the number of neurons across all groups.
func (n *Network) TotalNeurons() int {
	total := 0
	for _, g := range n.groups {
		total += g.N
	}
	return total
}

// TotalSynapses returns the number of synapses across all connections.
func (n *Network) TotalSynapses() int {
	total := 0
	for _, c := range n.conns {
		total += len(c.Edges)
	}
	return total
}
