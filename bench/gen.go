package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	snnmap "repro"
)

// Job classes of the fleet-mix workload.
const (
	classCold   = "cold"   // a new application seed, so a new session key
	classWarm   = "warm"   // a new run on a primed session
	classSweep  = "sweep"  // a tech_seeds sweep of PSO seeds on a small primed session
	classRepeat = "repeat" // an exact repeat of an earlier spec, answered by a cache tier
)

const (
	// mixRate is the fleet-mix arrival rate in jobs per second.
	mixRate = 12.0
	// repeatAge is how long ago a repeated spec must have been due, so
	// that its first run has finished and the repeat meets a cache.
	repeatAge = 2 * time.Second
	// sweepSeeds is the width of one tech_seeds sweep.
	sweepSeeds = 4
)

// mixDeck fixes the class shares of fleet-mix: 15% cold, 45% warm, 10%
// sweeps and 30% repeats. Arrivals draw classes from shuffled copies of
// the deck, so every 20 consecutive arrivals hold exactly these shares.
var mixDeck = []string{
	classCold, classCold, classCold,
	classWarm, classWarm, classWarm, classWarm, classWarm, classWarm, classWarm, classWarm, classWarm,
	classSweep, classSweep,
	classRepeat, classRepeat, classRepeat, classRepeat, classRepeat, classRepeat,
}

// mixCombo is the shape of a fleet-mix session: generator family, neuron
// count and interconnect.
type mixCombo struct {
	family string
	n      int
	arch   string
}

var (
	mixFamilies   = []string{"modular", "smallworld", "scalefree", "layered", "sparserandom"}
	mixSizes      = []int{256, 512}
	mixArchs      = []string{"tree", "mesh"}
	mixTechniques = []string{"greedy", "neutrams", "hypercut", "pso"}
	// mixPrimedCombos are the shapes of the primed sessions: every family
	// once, both sizes and both interconnects, the same for every seed.
	mixPrimedCombos = []mixCombo{
		{"modular", 512, "tree"}, {"smallworld", 256, "mesh"}, {"scalefree", 512, "mesh"},
		{"layered", 256, "tree"}, {"sparserandom", 512, "mesh"}, {"modular", 256, "mesh"},
	}
)

// arrival is one open-loop submission: when it is due, counted from the
// start of the measured phase, and the normalized spec it sends.
type arrival struct {
	Due   time.Duration  `json:"due"`
	Class string         `json:"class"`
	Spec  snnmap.JobSpec `json:"spec"`
}

// mixPlan is everything the fleet-mix workload sends for one seed.
type mixPlan struct {
	// Warmup holds one job per primed session, run before the measured
	// phase.
	Warmup   []snnmap.JobSpec `json:"warmup"`
	Arrivals []arrival        `json:"arrivals"`
}

// mixGen draws fleet-mix specs. Every draw comes from one seeded stream
// in a fixed order, so a seed fixes the whole plan. Sessions, shapes and
// techniques come from shuffled decks, so every seed sends the same mix
// of costs: the seed changes the order, the applications' random graphs
// and the arrival times.
type mixGen struct {
	rng        *rand.Rand
	psoRuns    map[string]int // PSO runs issued per session key
	unique     int            // counter behind every per-run unique field
	appSeed    int64
	combos     []mixCombo       // cold-session deck
	techniques []string         // technique deck
	warm       []snnmap.JobSpec // primed-session deck of warm runs
	sweeps     []snnmap.JobSpec // primed-session deck of sweeps
}

// deal returns the next card of a deck, refilling it with a shuffled copy
// of full when empty.
func deal[T any](rng *rand.Rand, deck *[]T, full []T) T {
	if len(*deck) == 0 {
		*deck = append(*deck, full...)
		rng.Shuffle(len(*deck), func(a, b int) { (*deck)[a], (*deck)[b] = (*deck)[b], (*deck)[a] })
	}
	card := (*deck)[0]
	*deck = (*deck)[1:]
	return card
}

// allCombos lists every family × size × interconnect.
func allCombos() []mixCombo {
	var out []mixCombo
	for _, f := range mixFamilies {
		for _, n := range mixSizes {
			for _, a := range mixArchs {
				out = append(out, mixCombo{f, n, a})
			}
		}
	}
	return out
}

// newSession starts a session of the given shape on a fresh application
// seed: a session key no earlier job used.
func (g *mixGen) newSession(c mixCombo) snnmap.JobSpec {
	g.appSeed++
	return snnmap.JobSpec{App: fmt.Sprintf("gen:%s:n=%d,seed=%d", c.family, c.n, g.appSeed), Arch: c.arch}
}

// run turns a session base into one job with a content address no
// earlier job had. Deterministic techniques ignore iterations, so a unique
// iterations value changes the address and not the work; PSO's work does
// depend on it, so PSO runs on one session count 8, 9, 10, ... iterations.
func (g *mixGen) run(base snnmap.JobSpec) snnmap.JobSpec {
	s := base
	tech := deal(g.rng, &g.techniques, mixTechniques)
	s.Techniques = []string{tech}
	if tech == "pso" {
		key := s.App + "|" + s.Arch
		s.SwarmSize, s.Iterations = 8, 8+g.psoRuns[key]
		g.psoRuns[key]++
		return s
	}
	g.unique++
	s.Iterations = 1000 + g.unique
	return s
}

// sweep is a tech_seeds job: four fresh PSO seeds on an existing session.
func (g *mixGen) sweep(base snnmap.JobSpec) snnmap.JobSpec {
	s := base
	s.Techniques = []string{"pso"}
	s.SwarmSize, s.Iterations = 8, 8
	for i := 0; i < sweepSeeds; i++ {
		g.unique++
		s.TechSeeds = append(s.TechSeeds, int64(g.unique))
	}
	return s
}

// planFleetMix builds the fleet-mix plan for a seed and a measured phase
// of length d. The arrival count is fixed at mixRate·d and the due times
// are sorted uniform draws over the phase: a Poisson process conditioned
// on its count, so the offered rate is exact for every seed.
func planFleetMix(seed int64, d time.Duration) (mixPlan, error) {
	g := &mixGen{rng: rand.New(rand.NewSource(seed)), psoRuns: map[string]int{}, appSeed: seed * 1000}
	var plan mixPlan
	var primed, small []snnmap.JobSpec
	for _, c := range mixPrimedCombos {
		base := g.newSession(c)
		primed = append(primed, base)
		if c.n == mixSizes[0] {
			small = append(small, base)
		}
		plan.Warmup = append(plan.Warmup, g.run(base))
	}
	n := int(mixRate*d.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(g.rng.Int63n(int64(d)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })

	var classes []string
	combos := allCombos()
	aged := 0 // arrivals[:aged] were due at least repeatAge before the current one
	for i, due := range dues {
		class := deal(g.rng, &classes, mixDeck)
		for aged < i && plan.Arrivals[aged].Due <= due-repeatAge {
			aged++
		}
		var s snnmap.JobSpec
		switch class {
		case classCold:
			s = g.run(g.newSession(deal(g.rng, &g.combos, combos)))
		case classWarm:
			s = g.run(deal(g.rng, &g.warm, primed))
		case classSweep:
			// A sweep is four PSO runs back to back on one worker, the
			// longest job of the mix; on the larger sessions it held the
			// queue long enough to set the latency tail by itself.
			s = g.sweep(deal(g.rng, &g.sweeps, small))
		case classRepeat:
			// Warm-up jobs finished before the phase began, so they are
			// always old enough to repeat.
			k := g.rng.Intn(len(plan.Warmup) + aged)
			if k < len(plan.Warmup) {
				s = plan.Warmup[k]
			} else {
				s = plan.Arrivals[k-len(plan.Warmup)].Spec
			}
		}
		plan.Arrivals = append(plan.Arrivals, arrival{Due: due, Class: class, Spec: s})
	}
	for i := range plan.Warmup {
		norm, err := plan.Warmup[i].Normalize()
		if err != nil {
			return mixPlan{}, fmt.Errorf("warm-up spec %d: %w", i, err)
		}
		plan.Warmup[i] = norm
	}
	for i := range plan.Arrivals {
		norm, err := plan.Arrivals[i].Spec.Normalize()
		if err != nil {
			return mixPlan{}, fmt.Errorf("arrival %d: %w", i, err)
		}
		plan.Arrivals[i].Spec = norm
	}
	return plan, nil
}

// Base shapes of the closed-loop workloads. replayShapes are
// spike-heavy and cheap to partition, so NoC replay dominates a job;
// partitionShapes are spike-light and synapse-heavy, so partitioning does.
var (
	replayShapes = []snnmap.JobSpec{
		{App: "gen:modular:n=512", Arch: "tree", Techniques: []string{"greedy"}},
		{App: "gen:smallworld:n=512", Arch: "mesh", Techniques: []string{"neutrams"}},
		{App: "gen:layered:n=1024", Arch: "mesh", Techniques: []string{"greedy"}},
		{App: "gen:scalefree:n=512", Arch: "mesh", Techniques: []string{"greedy"}},
	}
	partitionShapes = []snnmap.JobSpec{
		{App: "gen:sparserandom:n=2048,dur=100,rate=1-5", Arch: "tree", Techniques: []string{"kl"}},
		{App: "gen:modular:n=2048,dur=100,rate=1-5", Arch: "mesh", Techniques: []string{"kl"}},
		{App: "gen:modular:n=8192,dur=50,rate=1-5", Arch: "mesh", Techniques: []string{"hypercut"}},
		{App: "gen:smallworld:n=8192,dur=50,rate=1-5", Arch: "tree", Techniques: []string{"hypercut"}},
	}
)

// closedClients is the client count of the closed-loop workloads.
const closedClients = 2

// closedPlan is the job sequence of a closed-loop workload for one seed:
// the base shapes in a seeded rotation order. The applications keep their
// default seed, so every seed sends the same work.
type closedPlan struct {
	Shapes []snnmap.JobSpec `json:"shapes"`
	// Base offsets the unique iterations values.
	Base int `json:"base"`
}

func planClosed(shapes []snnmap.JobSpec, seed int64) (closedPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := closedPlan{Base: 1000 + rng.Intn(1000)*1000}
	for _, i := range rng.Perm(len(shapes)) {
		norm, err := shapes[i].Normalize()
		if err != nil {
			return closedPlan{}, fmt.Errorf("shape %d: %w", i, err)
		}
		p.Shapes = append(p.Shapes, norm)
	}
	return p, nil
}

// job is the i-th job of a client. The clients walk the same rotation
// half a turn apart, and each job's iterations value is unique: the
// deterministic techniques ignore it, so every job costs the same as its
// shape and only misses the result cache.
func (p closedPlan) job(client, i int) (index int, s snnmap.JobSpec) {
	index = i*closedClients + client
	s = p.Shapes[(i+client*len(p.Shapes)/closedClients)%len(p.Shapes)]
	s.Iterations = p.Base + index
	return index, s
}
