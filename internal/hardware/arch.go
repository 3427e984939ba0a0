// Package hardware models the target neuromorphic platform of the paper
// (§II, Fig. 1): C crossbars of Nc fully connected neurons each, joined by
// a time-multiplexed global synapse interconnect (NoC-tree for CxQuad,
// NoC-mesh for TrueNorth/HiCANN-class chips), together with a configurable
// energy model standing in for the in-house chip power numbers used by the
// authors.
package hardware

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/noc"
)

// EnergyModel holds the per-event energy constants. Local synaptic events
// grow linearly with the crossbar dimension (nanowire length scales with
// the array), while global events pay per link hop and per router
// traversal. Values are picojoules.
type EnergyModel struct {
	// LocalBasePJ is the crossbar-size-independent part of a local
	// synaptic event.
	LocalBasePJ float64 `json:"local_base_pj"`
	// LocalPerNeuronPJ is the per-crossbar-neuron part of a local
	// synaptic event (wordline/bitline capacitance growth).
	LocalPerNeuronPJ float64 `json:"local_per_neuron_pj"`
	// HopPJ is the energy per flit per link traversal.
	HopPJ float64 `json:"hop_pj"`
	// RouterPJ is the energy per flit per router traversal.
	RouterPJ float64 `json:"router_pj"`
}

// DefaultEnergy returns energy constants of published magnitude: a local
// synaptic event on a 256-neuron crossbar costs ≈25 pJ (TrueNorth reports
// 26 pJ per synaptic event) and a link hop costs a few pJ.
func DefaultEnergy() EnergyModel {
	return EnergyModel{
		LocalBasePJ:      10.0,
		LocalPerNeuronPJ: 0.06,
		HopPJ:            1.8,
		RouterPJ:         0.9,
	}
}

// AERMode selects how global-synapse spikes are turned into AER packets.
type AERMode int

const (
	// PerSynapse sends one packet per global synapse per spike: the
	// time-multiplexed point-to-point model of the paper (§II), under
	// which interconnect traffic equals the PSO fitness F (Eq. 8).
	PerSynapse AERMode = iota
	// PerCrossbar deduplicates: one packet per (spike, destination
	// crossbar), with the receiving crossbar fanning the event out to
	// all local synapses of the source neuron.
	PerCrossbar
	// MulticastAER sends a single multicast packet per spike addressed
	// to every destination crossbar (the paper's Noxim++ multicast
	// extension); the packet forks inside the network.
	MulticastAER
)

// ParseAERMode resolves the mode labels accepted by the CLIs and the
// architecture registry back into an AERMode.
func ParseAERMode(s string) (AERMode, error) {
	switch s {
	case "", "per-synapse":
		return PerSynapse, nil
	case "per-crossbar":
		return PerCrossbar, nil
	case "multicast":
		return MulticastAER, nil
	default:
		return 0, fmt.Errorf("hardware: unknown AER mode %q (per-synapse, per-crossbar, multicast)", s)
	}
}

// String returns the mode label used in ablation reports.
func (m AERMode) String() string {
	switch m {
	case PerSynapse:
		return "per-synapse"
	case PerCrossbar:
		return "per-crossbar"
	case MulticastAER:
		return "multicast"
	default:
		return fmt.Sprintf("AERMode(%d)", int(m))
	}
}

// Arch describes a crossbar-based neuromorphic architecture.
type Arch struct {
	// Name labels the architecture in reports.
	Name string `json:"name"`
	// Crossbars is C, the number of crossbars.
	Crossbars int `json:"crossbars"`
	// CrossbarSize is Nc, the maximum neurons per crossbar (paper Eq. 5).
	CrossbarSize int `json:"crossbar_size"`
	// Interconnect selects the global synapse interconnect topology.
	Interconnect noc.Kind `json:"interconnect"`
	// TreeArity is the NoC-tree fan-out (ignored for mesh).
	TreeArity int `json:"tree_arity,omitempty"`
	// MeshWidth fixes the NoC-mesh width; 0 selects the squarest grid.
	MeshWidth int `json:"mesh_width,omitempty"`
	// CyclesPerMs is the interconnect clock in cycles per SNN millisecond.
	CyclesPerMs int64 `json:"cycles_per_ms"`
	// BufferDepth is the router input FIFO depth in packets.
	BufferDepth int `json:"buffer_depth"`
	// PacketFlits is the AER packet size in flits.
	PacketFlits int `json:"packet_flits"`
	// Multicast enables in-network multicast packet forking.
	Multicast bool `json:"multicast"`
	// AER selects the packetization of global synapses (default
	// PerSynapse, the paper's cost model).
	AER AERMode `json:"aer_mode"`
	// Energy holds the energy constants.
	Energy EnergyModel `json:"energy"`
}

// CxQuad returns the reference architecture of the paper: four crossbars
// of 256 neurons each, joined by a NoC-tree (single root router).
func CxQuad() Arch {
	return Arch{
		Name:         "CxQuad",
		Crossbars:    4,
		CrossbarSize: 256,
		Interconnect: noc.Tree,
		TreeArity:    4,
		CyclesPerMs:  10000,
		BufferDepth:  4,
		PacketFlits:  1,
		Multicast:    true,
		Energy:       DefaultEnergy(),
	}
}

// MeshChip returns a TrueNorth-like architecture: crossbars on a 2D mesh.
func MeshChip(crossbars, crossbarSize int) Arch {
	return Arch{
		Name:         fmt.Sprintf("mesh-%dx%d", crossbars, crossbarSize),
		Crossbars:    crossbars,
		CrossbarSize: crossbarSize,
		Interconnect: noc.Mesh,
		CyclesPerMs:  10000,
		BufferDepth:  4,
		PacketFlits:  1,
		Multicast:    true,
		Energy:       DefaultEnergy(),
	}
}

// ForNeurons sizes a CxQuad-style tree architecture for a network of n
// neurons with crossbars of size crossbarSize, choosing the smallest
// crossbar count that fits.
func ForNeurons(n, crossbarSize int) Arch {
	c := (n + crossbarSize - 1) / crossbarSize
	if c < 1 {
		c = 1
	}
	a := CxQuad()
	a.Name = fmt.Sprintf("tree-%dx%d", c, crossbarSize)
	a.Crossbars = c
	a.CrossbarSize = crossbarSize
	a.TreeArity = 2
	return a
}

// Validate checks the architecture parameters.
func (a Arch) Validate() error {
	if a.Crossbars < 1 {
		return fmt.Errorf("hardware: %d crossbars", a.Crossbars)
	}
	if a.CrossbarSize < 1 {
		return fmt.Errorf("hardware: crossbar size %d", a.CrossbarSize)
	}
	if a.Interconnect != noc.Tree && a.Interconnect != noc.Mesh {
		return fmt.Errorf("hardware: unknown interconnect %d", a.Interconnect)
	}
	if a.CyclesPerMs < 1 {
		return fmt.Errorf("hardware: cycles per ms %d", a.CyclesPerMs)
	}
	return nil
}

// Capacity returns the total neuron capacity C·Nc.
func (a Arch) Capacity() int { return a.Crossbars * a.CrossbarSize }

// Fits reports whether a network of n neurons can be mapped.
func (a Arch) Fits(n int) bool { return n <= a.Capacity() }

// LocalEventPJ returns the energy of one synaptic event inside a crossbar
// of this architecture.
func (a Arch) LocalEventPJ() float64 {
	return a.Energy.LocalBasePJ + a.Energy.LocalPerNeuronPJ*float64(a.CrossbarSize)
}

// NoCConfig derives the interconnect simulator configuration.
func (a Arch) NoCConfig() noc.Config {
	cfg := noc.DefaultConfig(a.Interconnect, a.Crossbars)
	cfg.TreeArity = a.TreeArity
	if cfg.TreeArity == 0 {
		cfg.TreeArity = 2
	}
	cfg.MeshWidth = a.MeshWidth
	cfg.BufferDepth = a.BufferDepth
	cfg.PacketFlits = a.PacketFlits
	cfg.CyclesPerMs = a.CyclesPerMs
	cfg.Multicast = a.Multicast
	cfg.HopEnergyPJ = a.Energy.HopPJ
	cfg.RouterEnergyPJ = a.Energy.RouterPJ
	return cfg
}

// WriteJSON serializes the architecture description (the stand-in for
// Noxim's externally loaded YAML power/parameter files; JSON keeps the
// reproduction stdlib-only).
func (a Arch) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ReadJSON loads and validates an architecture description.
func ReadJSON(r io.Reader) (Arch, error) {
	var a Arch
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return Arch{}, fmt.Errorf("hardware: decoding JSON: %w", err)
	}
	if err := a.Validate(); err != nil {
		return Arch{}, err
	}
	return a, nil
}

// LocalStats aggregates crossbar-internal activity of a mapped network.
type LocalStats struct {
	// Events is the number of local synaptic events: one per spike per
	// intra-crossbar synapse of the spiking neuron.
	Events int64
	// EnergyPJ is Events × LocalEventPJ.
	EnergyPJ float64
}

// LocalActivity computes crossbar-internal synaptic events and energy for a
// spike graph under the neuron-to-crossbar assignment assign (paper §V-C:
// "local synapse energy is the total energy for spike communication inside
// all crossbars").
func LocalActivity(g *graph.SpikeGraph, assign []int, a Arch) (LocalStats, error) {
	return LocalActivityCounts(g, g.SpikeCounts(), assign, a)
}

// LocalActivityCounts is LocalActivity with caller-supplied per-neuron
// spike counts, letting a warm mapping session characterize the graph once
// and reuse the counts across every run it serves.
func LocalActivityCounts(g *graph.SpikeGraph, counts []int64, assign []int, a Arch) (LocalStats, error) {
	if len(assign) != g.Neurons {
		return LocalStats{}, fmt.Errorf("hardware: assignment covers %d of %d neurons", len(assign), g.Neurons)
	}
	if len(counts) != g.Neurons {
		return LocalStats{}, fmt.Errorf("hardware: spike counts cover %d of %d neurons", len(counts), g.Neurons)
	}
	var events int64
	for i, c := range counts {
		for _, post := range g.CSR.OutPost(i) {
			if assign[i] == assign[post] {
				events += c
			}
		}
	}
	return LocalStats{
		Events:   events,
		EnergyPJ: float64(events) * a.LocalEventPJ(),
	}, nil
}
