// Package snnmap is the public facade of this reproduction of
//
//	A. Das et al., "Mapping of Local and Global Synapses on Spiking
//	Neuromorphic Hardware", DATE 2018.
//
// It wires the full systematic framework of the paper's Fig. 4 together:
// an application's trained SNN (internal/apps, built and characterized by
// the CARLsim-substitute simulator internal/snn) is exported as a spike
// graph, partitioned into local and global synapses by a PSO (or a baseline
// technique, internal/partition), and the resulting global traffic is
// replayed on a cycle-level interconnect simulator (the Noxim++ substitute,
// internal/noc) to obtain energy, latency, throughput, spike disorder and
// ISI distortion (internal/metrics).
//
// Typical use — build a warm session once, run many techniques/seeds:
//
//	app, _ := snnmap.BuildApp("HW", snnmap.AppConfig{Seed: 1})
//	arch := snnmap.CxQuad()
//	pipe, _ := snnmap.NewPipeline(app, arch)
//	report, _ := pipe.Run(ctx, snnmap.NewPSO(snnmap.DefaultPSOConfig()))
//	fmt.Println(report.TotalEnergyPJ, report.Metrics.ISIAvgCycles)
package snnmap

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	_ "repro/internal/genapp" // registers the gen:* scenario families
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/partition"
)

// AER packetization modes, re-exported from internal/hardware.
const (
	// PerSynapse sends one packet per crossing synapse per spike.
	PerSynapse = hardware.PerSynapse
	// PerCrossbar deduplicates packets per destination crossbar.
	PerCrossbar = hardware.PerCrossbar
	// MulticastAER sends one in-network-forking packet per spike.
	MulticastAER = hardware.MulticastAER
)

// Re-exported types forming the public API surface.
type (
	// App is a built SNN application with its characterized spike graph.
	App = apps.App
	// AppConfig parameterizes application construction.
	AppConfig = apps.Config
	// Arch describes the target neuromorphic architecture.
	Arch = hardware.Arch
	// EnergyModel holds the architecture's energy constants.
	EnergyModel = hardware.EnergyModel
	// Assignment maps neurons to crossbars.
	Assignment = partition.Assignment
	// Partitioner is any SNN partitioning technique.
	Partitioner = partition.Partitioner
	// PSOConfig parameterizes the paper's PSO partitioner.
	PSOConfig = partition.PSOConfig
	// MetricsReport holds the SNN-specific interconnect metrics.
	MetricsReport = metrics.Report
	// SpikeGraph is the trained-SNN interchange graph G=(A,S).
	SpikeGraph = graph.SpikeGraph
	// Problem is a partitioning instance.
	Problem = partition.Problem
	// WorkloadDelta perturbs a characterized workload (synapse churn and
	// rate drift) for incremental remapping.
	WorkloadDelta = graph.WorkloadDelta
	// RateShift rescales one neuron's firing rate inside a WorkloadDelta.
	RateShift = graph.RateShift
	// Delivery is one spike arrival on the interconnect.
	Delivery = noc.Delivery
	// NoCStats aggregates interconnect-level statistics.
	NoCStats = noc.Stats
)

// Re-exported constructors.
var (
	// CxQuad returns the paper's reference architecture.
	CxQuad = hardware.CxQuad
	// MeshChip returns a TrueNorth-like mesh architecture.
	MeshChip = hardware.MeshChip
	// ForNeurons sizes a tree architecture for a network.
	ForNeurons = hardware.ForNeurons
	// NewPSO constructs the paper's PSO partitioner.
	NewPSO = partition.NewPSO
	// DefaultPSOConfig returns the reference PSO configuration.
	DefaultPSOConfig = partition.DefaultPSOConfig
	// NewProblem builds a partitioning instance.
	NewProblem = partition.NewProblem
)

// Baseline and ablation partitioners.
var (
	// Pacman is the PACMAN baseline (SpiNNaker's hierarchical mapper).
	Pacman partition.Partitioner = partition.Pacman{}
	// Neutrams is the NEUTRAMS ad-hoc mapping baseline.
	Neutrams partition.Partitioner = partition.Neutrams{}
	// GreedyPartitioner is the deterministic traffic-aware heuristic.
	GreedyPartitioner partition.Partitioner = partition.Greedy{}
	// HyperCutPartitioner is the connectivity-cut hypergraph partitioner
	// (multicast-aware FM/KL local search over per-hyperedge pin counts).
	HyperCutPartitioner partition.Partitioner = partition.HyperCut{}
)

// BuildApp resolves a name against the application registry and constructs
// the application. Accepted spellings:
//
//   - the paper's Table I short names ("HW", "IS", "HD", "HE") and their
//     legacy long aliases;
//   - the synthetic feedforward family with an explicit parameter tail
//     ("synth:layers=2,width=200");
//   - the generated scenario families of internal/genapp
//     ("gen:smallworld", "gen:modular:n=512,seed=7", ...), whose parameter
//     tails override cfg's Seed/DurationMs.
func BuildApp(name string, cfg AppConfig) (*App, error) {
	return apps.Build(name, cfg)
}

// RegisterApp adds a named application family to the registry shared by
// both CLIs and the experiment drivers. The factory receives the common
// config plus the raw "k=v,..." parameter tail of the resolved spec.
func RegisterApp(name string, f func(cfg AppConfig, params string) (*App, error)) {
	apps.Register(name, f)
}

// AppNames lists the registered application families in registration
// order.
func AppNames() []string { return apps.Names() }

// BuildSynthetic constructs a synthetic m-layers × n-neurons feedforward
// application (paper §V-A).
func BuildSynthetic(cfg AppConfig, layers, width int) (*App, error) {
	return apps.Synthetic(cfg, layers, width)
}

// Report is the complete outcome of mapping one application onto one
// architecture with one technique — the rows of the paper's Fig. 5,
// Table II and Fig. 6 are read directly off this struct.
type Report struct {
	// AppName and Technique identify the experiment.
	AppName   string
	Technique string
	ArchName  string

	// Network shape.
	Neurons  int
	Synapses int

	// Partition outcome.
	Assignment Assignment
	// GlobalTraffic is the PSO fitness F: spikes crossing crossbars
	// (paper Eq. 8).
	GlobalTraffic int64
	// GlobalSynapseCount is the number of synapses mapped onto the
	// interconnect; LocalSynapseCount is the complement.
	GlobalSynapseCount int
	LocalSynapseCount  int

	// Energy split (paper Fig. 6): local = inside crossbars, global = on
	// the interconnect.
	LocalEvents    int64
	LocalEnergyPJ  float64
	GlobalEnergyPJ float64
	TotalEnergyPJ  float64

	// Interconnect-level statistics from the NoC simulation.
	NoC NoCStats
	// Metrics are the SNN-specific measurements of Table II.
	Metrics MetricsReport
	// Deliveries is the raw arrival trace (nil unless the pipeline was
	// built WithTrace).
	Deliveries []Delivery
}

// SimulateTraffic replays the global-synapse spike traffic of a mapped
// spike graph on the architecture's interconnect and returns the NoC
// result. Packetization follows arch.AER:
//
//   - PerSynapse (default, the paper's cost model of Eq. 7–8): every spike
//     of a neuron produces one packet per crossing synapse, so injected
//     traffic equals the partitioning fitness F.
//   - PerCrossbar: one packet per (spike, destination crossbar).
//   - MulticastAER: one multicast packet per spike addressed to all
//     destination crossbars (the Noxim++ multicast extension).
func SimulateTraffic(g *SpikeGraph, assign Assignment, arch Arch) (*noc.Result, error) {
	sim, err := noc.NewSimulator(arch.NoCConfig())
	if err != nil {
		return nil, err
	}
	return new(trafficScratch).injectAndRun(sim, g, assign, arch)
}

// trafficScratch is the reusable injection scratch of a replay:
// destination multiplicity, the touched-crossbar list, the
// single-crossbar destination-mask table and the word arena behind
// multicast destination masks. A zero value works (everything is sized on
// first use); a warm Pipeline keeps one scratch in each pooled replay
// context, seeded with the session-wide prefilled singleton table, so
// repeated replays allocate no injection scratch at all. A scratch is
// single-goroutine state except for the singleton table, which may be
// shared across scratches only when fully prefilled (newSingletonTable):
// lazy fills write the table.
type trafficScratch struct {
	multiplicity []int
	touched      []int
	singleton    []noc.Mask
	maskWords    []uint64
}

// newSingletonTable prefills the single-crossbar destination masks so the
// table is immutable afterwards and safe to share across concurrent runs.
// Destination masks are never mutated by the simulator (flights copy
// them), so one mask per destination serves every neuron, spike, and run
// of a session.
func newSingletonTable(crossbars int) []noc.Mask {
	t := make([]noc.Mask, crossbars)
	for k := range t {
		m := noc.NewMask(crossbars)
		m.Set(k)
		t[k] = m
	}
	return t
}

// injectAndRun turns the mapped graph's global traffic into simulator
// sources and replays it: one source per (neuron, destination mask) under
// multicast AER, one per (neuron, destination crossbar) otherwise, with
// the synapse multiplicity as the repeat count under per-synapse AER.
// Every source shares the neuron's immutable spike train g.Spikes[i]. Per
// spiking neuron the cost is O(out-degree): destination multiplicity is
// tracked through a touched-crossbar list, so only the entries a neuron
// actually wrote are cleared, instead of wiping the full O(Crossbars)
// scratch slice every neuron.
func (sc *trafficScratch) injectAndRun(sim *noc.Simulator, g *SpikeGraph, assign Assignment, arch Arch) (*noc.Result, error) {
	if len(assign) != g.Neurons {
		return nil, fmt.Errorf("snnmap: assignment covers %d of %d neurons", len(assign), g.Neurons)
	}
	csr := &g.CSR
	if len(sc.multiplicity) < arch.Crossbars {
		sc.multiplicity = make([]int, arch.Crossbars)
	}
	if len(sc.singleton) < arch.Crossbars {
		sc.singleton = make([]noc.Mask, arch.Crossbars)
	}
	if cap(sc.touched) < arch.Crossbars {
		sc.touched = make([]int, 0, arch.Crossbars)
	}
	multiplicity, singleton := sc.multiplicity, sc.singleton
	touched := sc.touched[:0]
	defer func() { sc.touched = touched[:0] }()
	singletonMask := func(k int) noc.Mask {
		if singleton[k] == nil {
			m := noc.NewMask(arch.Crossbars)
			m.Set(k)
			singleton[k] = m
		}
		return singleton[k]
	}
	// Multicast masks are carved from one arena: a mask must outlive the
	// loop (the simulator reads it during Run), and an arena that outgrows
	// its array leaves the masks already handed out on the old one.
	words := len(singletonMask(0))
	sc.maskWords = sc.maskWords[:0]
	for i := 0; i < g.Neurons; i++ {
		spikes := g.Spikes[i]
		if len(spikes) == 0 {
			continue
		}
		src := assign[i]
		touched = touched[:0]
		for _, post := range csr.OutPost(i) {
			if k := assign[post]; k != src {
				if multiplicity[k] == 0 {
					touched = append(touched, k)
				}
				multiplicity[k]++
			}
		}
		if len(touched) == 0 {
			continue
		}
		// Ascending destination order keeps the injection sequence (and
		// therefore the cycle-level simulation) identical to the previous
		// full-scan implementation.
		sort.Ints(touched)
		source := noc.Source{SrcNeuron: int32(i), Src: src, SpikesMs: spikes, Repeat: 1}
		if arch.AER == hardware.MulticastAER {
			n := len(sc.maskWords)
			sc.maskWords = append(sc.maskWords, make([]uint64, words)...)
			source.Dst = noc.Mask(sc.maskWords[n : n+words : n+words])
			for _, k := range touched {
				source.Dst.Set(k)
			}
			if err := sim.AddSource(source); err != nil {
				return nil, err
			}
		} else {
			for _, k := range touched {
				source.Dst = singletonMask(k)
				if arch.AER != hardware.PerCrossbar {
					source.Repeat = multiplicity[k] // PerSynapse
				}
				if err := sim.AddSource(source); err != nil {
					return nil, err
				}
			}
		}
		for _, k := range touched {
			multiplicity[k] = 0
		}
	}
	return sim.Run()
}
