package genapp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/graph"
)

// familyBuilder synthesizes one family's topology: the synapse list and the
// population structure. Spike trains are drawn afterwards from the same rng
// stream by Build.
type familyBuilder func(s Spec, rng *rand.Rand) ([]graph.Synapse, []graph.Group, error)

// familyOrder fixes the registration and listing order of the families.
var familyOrder = []string{"layered", "smallworld", "scalefree", "modular", "sparserandom"}

var familyBuilders = map[string]familyBuilder{
	"layered":      buildLayered,
	"smallworld":   buildSmallWorld,
	"scalefree":    buildScaleFree,
	"modular":      buildModular,
	"sparserandom": buildSparseRandom,
}

var descriptions = map[string]string{
	"layered":      "Layered convolutional feed-forward: equal layers, each neuron driven by a sliding window of the previous layer",
	"smallworld":   "Watts–Strogatz small-world: ring lattice of degree k with (1−plocal) of edges rewired to uniform targets",
	"scalefree":    "Scale-free hub-dominated: preferential attachment (Barabási–Albert) with random edge orientation",
	"modular":      "Modular/clustered: dense intra-cluster connectivity with plocal of each neuron's synapses kept local",
	"sparserandom": "Sparse random: Erdős–Rényi digraph G(n, k/(n−1)) via geometric edge skipping",
}

// Families lists the generator families in registration order.
func Families() []string {
	out := make([]string, len(familyOrder))
	copy(out, familyOrder)
	return out
}

func isFamily(name string) bool {
	_, ok := familyBuilders[name]
	return ok
}

// init registers every family in the application registry under its
// "gen:<family>" name; the parameter tail of the spec overrides the
// family defaults and, where absent, Seed/DurationMs fall back to the
// caller's apps.Config.
func init() {
	for _, family := range familyOrder {
		f := family
		apps.Register("gen:"+f, func(cfg apps.Config, params string) (*apps.App, error) {
			s, err := DefaultSpec(f)
			if err != nil {
				return nil, err
			}
			if cfg.Seed != 0 {
				s.Seed = cfg.Seed
			}
			if cfg.DurationMs != 0 {
				s.DurationMs = cfg.DurationMs
			}
			if err := s.apply(params); err != nil {
				return nil, err
			}
			return Build(s)
		})
	}
}

// synapse draws one edge with a weight from [0.5, 2.0). The spike graph
// keeps no weights (only spike counts shape the mapping problem), but the
// draw stays: every spike train after it comes from the same rng stream.
func synapse(rng *rand.Rand, pre, post int) graph.Synapse {
	return graph.Synapse{
		Pre:     int32(pre),
		Post:    int32(post),
		Weight:  0.5 + rng.Float64()*1.5,
		DelayMs: 1,
	}
}

// buildLayered splits the n neurons into equal layers (the first layers
// absorb any remainder) and drives each neuron of layer l+1 from a FanOut
// window of layer l centered at its proportional position — a 1D
// convolutional feed-forward, the generator generalization of the paper's
// §V-A synthetic topologies.
func buildLayered(s Spec, rng *rand.Rand) ([]graph.Synapse, []graph.Group, error) {
	if s.Layers > s.N {
		return nil, nil, fmt.Errorf("genapp: layered: %d layers for %d neurons", s.Layers, s.N)
	}
	widths := make([]int, s.Layers)
	base, rem := s.N/s.Layers, s.N%s.Layers
	for l := range widths {
		widths[l] = base
		if l < rem {
			widths[l]++
		}
	}
	offsets := make([]int, s.Layers)
	for l := 1; l < s.Layers; l++ {
		offsets[l] = offsets[l-1] + widths[l-1]
	}
	groups := make([]graph.Group, s.Layers)
	for l := range groups {
		kind := "excitatory"
		if l == 0 {
			kind = "input"
		}
		groups[l] = graph.Group{Name: fmt.Sprintf("layer%d", l), Kind: kind, Start: offsets[l], N: widths[l]}
	}
	var synapses []graph.Synapse
	for l := 1; l < s.Layers; l++ {
		prevW, curW := widths[l-1], widths[l]
		window := s.FanOut
		if window > prevW {
			window = prevW
		}
		for j := 0; j < curW; j++ {
			// Window centered at the proportional position, wrapping at
			// the layer edges so every destination has exactly `window`
			// inputs.
			center := j * prevW / curW
			for d := 0; d < window; d++ {
				src := center - window/2 + d
				src = ((src % prevW) + prevW) % prevW
				synapses = append(synapses, synapse(rng, offsets[l-1]+src, offsets[l]+j))
			}
		}
	}
	return synapses, groups, nil
}

// buildSmallWorld builds a directed Watts–Strogatz graph: every neuron
// sends to its k/2 nearest ring neighbors on each side, then each edge is
// rewired to a uniform non-self target with probability 1−PLocal. PLocal=1
// is a pure ring lattice (all traffic between ring neighbors); lowering it
// converts local synapses into long-range global ones.
func buildSmallWorld(s Spec, rng *rand.Rand) ([]graph.Synapse, []graph.Group, error) {
	half := s.FanOut / 2
	if half < 1 {
		half = 1
	}
	beta := 1 - s.PLocal
	var synapses []graph.Synapse
	for i := 0; i < s.N; i++ {
		for d := 1; d <= half; d++ {
			for _, post := range []int{(i + d) % s.N, (i - d + s.N) % s.N} {
				if post == i {
					continue
				}
				if rng.Float64() < beta {
					post = rewire(rng, i, s.N)
				}
				synapses = append(synapses, synapse(rng, i, post))
			}
		}
	}
	groups := []graph.Group{{Name: "ring", Kind: "excitatory", Start: 0, N: s.N}}
	return synapses, groups, nil
}

// rewire draws a uniform target distinct from the source.
func rewire(rng *rand.Rand, src, n int) int {
	post := rng.Intn(n - 1)
	if post >= src {
		post++
	}
	return post
}

// buildScaleFree grows a Barabási–Albert preferential-attachment graph:
// each new neuron attaches m = FanOut/2 edges to targets sampled
// proportionally to degree, with each edge's direction chosen at random so
// hubs accumulate both large in- and out-degree — the hub-dominated
// traffic pattern that stresses placement around hot crossbars.
func buildScaleFree(s Spec, rng *rand.Rand) ([]graph.Synapse, []graph.Group, error) {
	m := s.FanOut / 2
	if m < 1 {
		m = 1
	}
	seed := m + 1
	if seed > s.N {
		seed = s.N
	}
	var synapses []graph.Synapse
	// endpoints holds every edge endpoint twice over; sampling it uniformly
	// is sampling nodes proportionally to degree.
	var endpoints []int
	addEdge := func(a, b int) {
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		synapses = append(synapses, synapse(rng, a, b))
		endpoints = append(endpoints, a, b)
	}
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			addEdge(i, j)
		}
	}
	targets := make([]int, 0, m)
	for t := seed; t < s.N; t++ {
		targets = targets[:0]
		for len(targets) < m && len(targets) < t {
			cand := endpoints[rng.Intn(len(endpoints))]
			dup := false
			for _, prev := range targets {
				if prev == cand {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, cand)
			}
		}
		for _, tgt := range targets {
			addEdge(t, tgt)
		}
	}
	groups := []graph.Group{{Name: "net", Kind: "excitatory", Start: 0, N: s.N}}
	return synapses, groups, nil
}

// buildModular partitions the neurons into Clusters communities and gives
// every neuron FanOut synapses, each kept inside its own cluster with
// probability PLocal and sent to a uniform neuron of another cluster
// otherwise — direct control over the local-to-global synapse ratio, the
// axis the paper's partitioning results turn on.
func buildModular(s Spec, rng *rand.Rand) ([]graph.Synapse, []graph.Group, error) {
	c := s.Clusters
	sizes := make([]int, c)
	base, rem := s.N/c, s.N%c
	for k := range sizes {
		sizes[k] = base
		if k < rem {
			sizes[k]++
		}
	}
	offsets := make([]int, c)
	for k := 1; k < c; k++ {
		offsets[k] = offsets[k-1] + sizes[k-1]
	}
	groups := make([]graph.Group, c)
	for k := range groups {
		groups[k] = graph.Group{Name: fmt.Sprintf("cluster%d", k), Kind: "excitatory", Start: offsets[k], N: sizes[k]}
	}
	cluster := make([]int, s.N)
	for k := 0; k < c; k++ {
		for i := offsets[k]; i < offsets[k]+sizes[k]; i++ {
			cluster[i] = k
		}
	}
	var synapses []graph.Synapse
	for i := 0; i < s.N; i++ {
		k := cluster[i]
		for e := 0; e < s.FanOut; e++ {
			var post int
			if rng.Float64() < s.PLocal && sizes[k] > 1 {
				post = offsets[k] + rng.Intn(sizes[k]-1)
				if post >= i {
					post++
				}
			} else {
				// Strictly inter-cluster, so PLocal is the exact expected
				// local fraction: draw from the neurons outside cluster k.
				post = rng.Intn(s.N - sizes[k])
				if post >= offsets[k] {
					post += sizes[k]
				}
			}
			synapses = append(synapses, synapse(rng, i, post))
		}
	}
	return synapses, groups, nil
}

// buildSparseRandom samples an Erdős–Rényi digraph G(n, p) with
// p = FanOut/(n−1) using geometric skipping over the n·(n−1) ordered
// non-self pairs, so generation costs O(edges) instead of O(n²).
func buildSparseRandom(s Spec, rng *rand.Rand) ([]graph.Synapse, []graph.Group, error) {
	p := float64(s.FanOut) / float64(s.N-1)
	if p > 1 {
		p = 1
	}
	total := int64(s.N) * int64(s.N-1)
	logQ := math.Log1p(-p)
	var synapses []graph.Synapse
	for idx := int64(-1); ; {
		if p >= 1 {
			idx++
		} else {
			// Geometric jump to the next present edge.
			skip := int64(math.Floor(math.Log(1-rng.Float64()) / logQ))
			idx += 1 + skip
		}
		if idx >= total {
			break
		}
		pre := int(idx / int64(s.N-1))
		r := int(idx % int64(s.N-1))
		post := r
		if post >= pre {
			post++
		}
		synapses = append(synapses, synapse(rng, pre, post))
	}
	groups := []graph.Group{{Name: "net", Kind: "excitatory", Start: 0, N: s.N}}
	return synapses, groups, nil
}
