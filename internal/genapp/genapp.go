// Package genapp mass-produces parameterized synthetic SNN workloads for
// the mapping framework. Where internal/apps reproduces the paper's fixed
// Table I applications, genapp generates whole structural families of spike
// graphs — layered/convolutional feed-forward, Watts–Strogatz small-world,
// scale-free hub-dominated, modular/clustered, and sparse-random — with
// controllable neuron count, fan-out, local/global synapse split (the
// paper's key axis), and spike-rate profile. Every family is seeded and
// fully deterministic: the same Spec always yields a byte-identical graph.
//
// Families register themselves in the internal/apps application registry
// under "gen:<family>" names, so both CLIs and the Pipeline sweeps can name
// a workload as e.g. "gen:smallworld:n=512,seed=7". Unlike the apps package
// builders, genapp synthesizes the characterized spike graph directly
// (topology + per-neuron Poisson trains) instead of running an SNN
// simulation — the mapping problem depends only on the spike graph, and
// direct synthesis keeps generation O(synapses + spikes), cheap enough to
// sweep thousands of scenarios.
package genapp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/spike"
)

// Rate profiles supported by every family.
const (
	// ProfileUniform draws each neuron's mean rate uniformly from
	// [RateMinHz, RateMaxHz].
	ProfileUniform = "uniform"
	// ProfileLognormal draws rates from a clamped lognormal — a few hot
	// neurons dominate traffic, the shape biological recordings show.
	ProfileLognormal = "lognormal"
	// ProfileBursty emits short high-frequency bursts at Poisson burst
	// onsets — the worst case for interconnect congestion and ISI
	// distortion.
	ProfileBursty = "bursty"
)

// Spec fully determines one generated workload. Identical specs produce
// byte-identical graphs (see TestGenAppDeterministic and the seed
// determinism invariant of the scenario harness).
type Spec struct {
	// Family is one of Families().
	Family string
	// N is the neuron count.
	N int
	// Seed drives every stochastic choice (topology and spike trains).
	Seed int64
	// DurationMs is the length of the synthesized characterization run.
	DurationMs int64
	// FanOut is the target mean out-degree (family-specific exact
	// semantics: ring degree for smallworld, attachment count ×2 for
	// scalefree, per-neuron edges for modular, expected degree for
	// sparserandom, window size for layered).
	FanOut int
	// PLocal steers the local/global synapse split where the family
	// supports it: the non-rewired edge fraction for smallworld and the
	// intra-cluster edge fraction for modular.
	PLocal float64
	// Clusters is the community count of the modular family.
	Clusters int
	// Layers is the depth of the layered family.
	Layers int
	// RateMinHz and RateMaxHz bound the per-neuron mean firing rates.
	RateMinHz, RateMaxHz float64
	// Profile selects the rate distribution (uniform, lognormal, bursty).
	Profile string
}

// DefaultSpec returns the reference parameterization of a family: 256
// neurons, fan-out 8, 500 ms characterization, 10–100 Hz uniform rates,
// seed 1, and a 0.9 local fraction where applicable.
func DefaultSpec(family string) (Spec, error) {
	if !isFamily(family) {
		return Spec{}, fmt.Errorf("genapp: unknown family %q (known: %v)", family, Families())
	}
	return Spec{
		Family:     family,
		N:          256,
		Seed:       1,
		DurationMs: 500,
		FanOut:     8,
		PLocal:     0.9,
		Clusters:   8,
		Layers:     4,
		RateMinHz:  10,
		RateMaxHz:  100,
		Profile:    ProfileUniform,
	}, nil
}

// Validate checks the spec's parameter ranges.
func (s Spec) Validate() error {
	if !isFamily(s.Family) {
		return fmt.Errorf("genapp: unknown family %q (known: %v)", s.Family, Families())
	}
	if s.N < 2 {
		return fmt.Errorf("genapp: %s: n=%d < 2", s.Family, s.N)
	}
	if s.DurationMs < 1 {
		return fmt.Errorf("genapp: %s: dur=%d < 1 ms", s.Family, s.DurationMs)
	}
	if s.FanOut < 1 || s.FanOut >= s.N {
		return fmt.Errorf("genapp: %s: fan-out k=%d outside [1,n)", s.Family, s.FanOut)
	}
	if s.PLocal < 0 || s.PLocal > 1 {
		return fmt.Errorf("genapp: %s: plocal=%v outside [0,1]", s.Family, s.PLocal)
	}
	// Clusters and Layers are family-specific: validating them globally
	// would reject e.g. a small smallworld net over the default cluster
	// count it never uses.
	if s.Family == "modular" && (s.Clusters < 2 || s.Clusters > s.N) {
		return fmt.Errorf("genapp: %s: clusters=%d outside [2,n]", s.Family, s.Clusters)
	}
	if s.Family == "layered" && (s.Layers < 2 || s.Layers > s.N) {
		return fmt.Errorf("genapp: %s: layers=%d outside [2,n]", s.Family, s.Layers)
	}
	if s.RateMinHz <= 0 || s.RateMaxHz < s.RateMinHz {
		return fmt.Errorf("genapp: %s: rate range %v-%v invalid", s.Family, s.RateMinHz, s.RateMaxHz)
	}
	switch s.Profile {
	case ProfileUniform, ProfileLognormal, ProfileBursty:
	default:
		return fmt.Errorf("genapp: %s: unknown rate profile %q (uniform, lognormal, bursty)", s.Family, s.Profile)
	}
	return nil
}

// Name returns the canonical registry spelling of the spec, the App name
// reports carry: n, k and seed always, plus every parameter that differs
// from the family default — so two sweep points (say plocal=0.5 vs 0.95)
// stay distinguishable in result tables, and re-resolving the name through
// the registry rebuilds the workload exactly.
func (s Spec) Name() string {
	def, err := DefaultSpec(s.Family)
	if err != nil {
		return "gen:" + s.Family
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gen:%s:n=%d,k=%d,seed=%d", s.Family, s.N, s.FanOut, s.Seed)
	if s.DurationMs != def.DurationMs {
		fmt.Fprintf(&b, ",dur=%d", s.DurationMs)
	}
	if s.PLocal != def.PLocal {
		fmt.Fprintf(&b, ",plocal=%v", s.PLocal)
	}
	if s.Clusters != def.Clusters {
		fmt.Fprintf(&b, ",clusters=%d", s.Clusters)
	}
	if s.Layers != def.Layers {
		fmt.Fprintf(&b, ",layers=%d", s.Layers)
	}
	if s.RateMinHz != def.RateMinHz || s.RateMaxHz != def.RateMaxHz {
		// Fixed-point notation: scientific notation would smuggle a '-'
		// into the min-max separator position and break re-parsing.
		fmt.Fprintf(&b, ",rate=%s-%s",
			strconv.FormatFloat(s.RateMinHz, 'f', -1, 64),
			strconv.FormatFloat(s.RateMaxHz, 'f', -1, 64))
	}
	if s.Profile != def.Profile {
		fmt.Fprintf(&b, ",profile=%s", s.Profile)
	}
	return b.String()
}

// ParseSpec resolves a family plus a "k=v,..." parameter tail against the
// family defaults. Recognized keys: n, seed, dur, k (fan-out), plocal,
// clusters, layers, rate ("min-max" in Hz), profile.
func ParseSpec(family, params string) (Spec, error) {
	s, err := DefaultSpec(family)
	if err != nil {
		return Spec{}, err
	}
	if err := s.apply(params); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func (s *Spec) apply(params string) error {
	kv, err := apps.ParseParams(params)
	if err != nil {
		return err
	}
	// Iterate keys in sorted order so a multi-error spec reports the same
	// first failure every time.
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := kv[k]
		var err error
		switch k {
		case "n":
			s.N, err = strconv.Atoi(v)
		case "seed":
			s.Seed, err = strconv.ParseInt(v, 10, 64)
		case "dur":
			s.DurationMs, err = strconv.ParseInt(v, 10, 64)
		case "k":
			s.FanOut, err = strconv.Atoi(v)
		case "plocal":
			s.PLocal, err = strconv.ParseFloat(v, 64)
		case "clusters":
			s.Clusters, err = strconv.Atoi(v)
		case "layers":
			s.Layers, err = strconv.Atoi(v)
		case "rate":
			lo, hi, ok := strings.Cut(v, "-")
			if !ok {
				return fmt.Errorf("genapp: %s: rate=%q (want min-max, e.g. 10-100)", s.Family, v)
			}
			if s.RateMinHz, err = strconv.ParseFloat(lo, 64); err == nil {
				s.RateMaxHz, err = strconv.ParseFloat(hi, 64)
			}
		case "profile":
			s.Profile = v
		default:
			return fmt.Errorf("genapp: %s: unknown parameter %q (n, seed, dur, k, plocal, clusters, layers, rate, profile)", s.Family, k)
		}
		if err != nil {
			return fmt.Errorf("genapp: %s: parameter %s=%q: %w", s.Family, k, v, err)
		}
	}
	return nil
}

// Build synthesizes the workload of a spec: the family's topology, then
// per-neuron spike trains under the rate profile, all drawn from one seeded
// stream in a fixed order.
func Build(s Spec) (*apps.App, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	synapses, groups, err := familyBuilders[s.Family](s, rng)
	if err != nil {
		return nil, err
	}
	csr, err := graph.NewCSR(s.N, synapses)
	if err != nil {
		return nil, fmt.Errorf("genapp: %s generated invalid graph: %w", s.Family, err)
	}
	g := &graph.SpikeGraph{
		Neurons:    s.N,
		CSR:        csr,
		Spikes:     trains(s, rng),
		Groups:     groups,
		DurationMs: s.DurationMs,
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("genapp: %s generated invalid graph: %w", s.Family, err)
	}
	app := &apps.App{
		Name:        s.Name(),
		Description: descriptions[s.Family],
		Graph:       g,
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// trains draws a mean rate per neuron under the profile, then a Poisson (or
// burst) train at that rate. Rates are drawn for all neurons first, then
// trains, so the rate assignment is independent of train lengths.
func trains(s Spec, rng *rand.Rand) []spike.Train {
	rates := make([]float64, s.N)
	span := s.RateMaxHz - s.RateMinHz
	for i := range rates {
		switch s.Profile {
		case ProfileLognormal:
			// Median at the lower quartile of the range; σ=0.75 gives a
			// heavy tail that the clamp folds onto RateMaxHz, so a
			// minority of hot neurons carries most of the traffic.
			median := s.RateMinHz + span*0.25
			r := median * math.Exp(0.75*rng.NormFloat64())
			rates[i] = math.Min(math.Max(r, s.RateMinHz), s.RateMaxHz)
		default: // uniform; bursty reuses the uniform mean rate per neuron
			rates[i] = s.RateMinHz + rng.Float64()*span
		}
	}
	out := make([]spike.Train, s.N)
	for i, rate := range rates {
		if s.Profile == ProfileBursty {
			out[i] = burstTrain(rng, rate, s.DurationMs)
			continue
		}
		out[i] = spike.Poisson(rng, rate, s.DurationMs)
	}
	return out
}

// burstTrain packs the neuron's mean rate into 5-spike bursts (2 ms
// intra-burst interval) at Poisson burst onsets, clipped to the run.
func burstTrain(rng *rand.Rand, rateHz float64, durationMs int64) spike.Train {
	const burstLen, burstGapMs = 5, 2
	onsets := spike.Poisson(rng, rateHz/burstLen, durationMs)
	var out spike.Train
	for _, start := range onsets {
		for b := int64(0); b < burstLen; b++ {
			if ts := start + b*burstGapMs; ts < durationMs {
				out = append(out, ts)
			}
		}
	}
	out.Sort()
	return out
}
