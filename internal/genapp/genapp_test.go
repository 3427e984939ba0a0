package genapp

import (
	"strings"
	"testing"

	"repro/internal/apps"
)

func mustSpec(t *testing.T, family, params string) Spec {
	t.Helper()
	s, err := ParseSpec(family, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEveryFamilyBuildsValidApp(t *testing.T) {
	for _, family := range Families() {
		s := mustSpec(t, family, "n=120,dur=300,seed=5")
		app, err := Build(s)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if err := app.Validate(); err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		g := app.Graph
		if g.Neurons != 120 {
			t.Fatalf("%s: neurons = %d", family, g.Neurons)
		}
		if len(g.CSR.Post) == 0 {
			t.Fatalf("%s: no synapses", family)
		}
		if g.TotalSpikes() == 0 {
			t.Fatalf("%s: silent workload", family)
		}
		if len(g.Groups) == 0 {
			t.Fatalf("%s: no population structure", family)
		}
	}
}

func TestGenAppDeterministic(t *testing.T) {
	for _, family := range Families() {
		s := mustSpec(t, family, "n=96,seed=11,dur=250")
		a1, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGraph(a1.Graph, a2.Graph) {
			t.Fatalf("%s: same spec produced different graphs", family)
		}
		s2 := s
		s2.Seed = 12
		a3, err := Build(s2)
		if err != nil {
			t.Fatal(err)
		}
		if sameGraph(a1.Graph, a3.Graph) {
			t.Fatalf("%s: different seeds produced identical graphs", family)
		}
	}
}

func TestLayeredIsStrictlyFeedForward(t *testing.T) {
	s := mustSpec(t, "layered", "n=128,layers=4,k=6")
	app, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph
	if len(g.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(g.Groups))
	}
	layerOf := make([]int, g.Neurons)
	for li, grp := range g.Groups {
		for i := grp.Start; i < grp.Start+grp.N; i++ {
			layerOf[i] = li
		}
	}
	for _, syn := range synapseList(g) {
		if layerOf[syn.Post] != layerOf[syn.Pre]+1 {
			t.Fatalf("edge %d→%d crosses layers %d→%d", syn.Pre, syn.Post, layerOf[syn.Pre], layerOf[syn.Post])
		}
	}
	// Every non-input neuron is driven by exactly the window size.
	in := g.InDegrees()
	for i := g.Groups[1].Start; i < g.Neurons; i++ {
		if in[i] != 6 {
			t.Fatalf("neuron %d in-degree %d, want 6", i, in[i])
		}
	}
}

func TestSmallWorldLocality(t *testing.T) {
	// plocal=1: pure ring lattice, every edge within k/2 ring distance.
	s := mustSpec(t, "smallworld", "n=100,k=8,plocal=1")
	app, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	ringDist := func(a, b, n int) int {
		d := a - b
		if d < 0 {
			d = -d
		}
		if n-d < d {
			d = n - d
		}
		return d
	}
	for _, syn := range synapseList(app.Graph) {
		if d := ringDist(int(syn.Pre), int(syn.Post), 100); d > 4 {
			t.Fatalf("unrewired edge %d→%d at ring distance %d > 4", syn.Pre, syn.Post, d)
		}
	}
	if got, want := len(app.Graph.CSR.Post), 100*8; got != want {
		t.Fatalf("synapses = %d, want %d", got, want)
	}

	// plocal=0.5 must rewire a substantial fraction to long range.
	s = mustSpec(t, "smallworld", "n=100,k=8,plocal=0.5")
	app, err = Build(s)
	if err != nil {
		t.Fatal(err)
	}
	long := 0
	for _, syn := range synapseList(app.Graph) {
		if ringDist(int(syn.Pre), int(syn.Post), 100) > 4 {
			long++
		}
	}
	if frac := float64(long) / float64(len(app.Graph.CSR.Post)); frac < 0.25 || frac > 0.6 {
		t.Fatalf("rewired long-range fraction %.2f, want ≈0.45", frac)
	}
}

func TestScaleFreeHasHubs(t *testing.T) {
	s := mustSpec(t, "scalefree", "n=400,k=8")
	app, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	out, in := app.Graph.OutDegrees(), app.Graph.InDegrees()
	maxDeg, total := 0, 0
	for i := range out {
		deg := out[i] + in[i]
		total += deg
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	mean := float64(total) / float64(len(out))
	if float64(maxDeg) < 4*mean {
		t.Fatalf("max degree %d under 4× mean %.1f — not hub-dominated", maxDeg, mean)
	}
}

func TestModularLocalFraction(t *testing.T) {
	for _, plocal := range []float64{0.9, 0.5} {
		s := mustSpec(t, "modular", "n=240,clusters=6,k=10")
		s.PLocal = plocal
		app, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		g := app.Graph
		if len(g.Groups) != 6 {
			t.Fatalf("groups = %d, want 6", len(g.Groups))
		}
		intra := 0
		for _, syn := range synapseList(g) {
			if g.GroupOf(int(syn.Pre)) == g.GroupOf(int(syn.Post)) {
				intra++
			}
		}
		frac := float64(intra) / float64(len(g.CSR.Post))
		if frac < plocal-0.08 || frac > plocal+0.08 {
			t.Fatalf("plocal=%.1f: intra-cluster fraction %.3f outside ±0.08", plocal, frac)
		}
	}
}

func TestSparseRandomEdgeCount(t *testing.T) {
	s := mustSpec(t, "sparserandom", "n=500,k=8")
	app, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// Expected edges = n·k; a Binomial(n(n−1), k/(n−1)) concentrates
	// tightly around it.
	got, want := float64(len(app.Graph.CSR.Post)), float64(500*8)
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("edges = %.0f, want ≈%.0f ±15%%", got, want)
	}
	for _, syn := range synapseList(app.Graph) {
		if syn.Pre == syn.Post {
			t.Fatalf("self-loop at %d", syn.Pre)
		}
	}
}

func TestRateProfiles(t *testing.T) {
	for _, profile := range []string{ProfileUniform, ProfileLognormal, ProfileBursty} {
		s := mustSpec(t, "modular", "n=150,dur=400,profile="+profile)
		app, err := Build(s)
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		g := app.Graph
		mean := g.Summary().MeanRateHz
		if mean < 5 || mean > 120 {
			t.Fatalf("%s: population mean rate %.1f Hz outside workload envelope", profile, mean)
		}
		for i, tr := range g.Spikes {
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s neuron %d: %v", profile, i, err)
			}
			for _, ts := range tr {
				if ts >= g.DurationMs {
					t.Fatalf("%s neuron %d: spike at %d beyond duration %d", profile, i, ts, g.DurationMs)
				}
			}
		}
	}
}

func TestSpecParsingErrors(t *testing.T) {
	cases := []struct{ family, params string }{
		{"nosuch", ""},
		{"modular", "bogus=1"},
		{"modular", "n=abc"},
		{"modular", "rate=50"},
		{"modular", "n=1"},
		{"modular", "k=0"},
		{"modular", "profile=warp"},
		{"modular", "plocal=1.5"},
		{"smallworld", "n=16,k=16"},
		{"modular", "n=6"}, // default clusters=8 > n
	}
	for _, tc := range cases {
		s, err := ParseSpec(tc.family, tc.params)
		if err == nil {
			err = s.Validate()
		}
		if err == nil {
			if _, err2 := Build(s); err2 == nil {
				t.Fatalf("%s %q: expected an error", tc.family, tc.params)
			}
		}
	}
}

// TestNameIsSelfDescribing pins that the canonical name carries every
// non-default parameter and re-resolves to the same workload — so two
// sweep points along any axis are distinguishable in result tables and
// any table row's App label rebuilds its workload.
func TestNameIsSelfDescribing(t *testing.T) {
	specs := []Spec{}
	for _, family := range Families() {
		def, err := DefaultSpec(family)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, def)
	}
	varied, err := ParseSpec("modular", "n=96,plocal=0.5,clusters=4,dur=200,rate=20-80,profile=bursty,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	// A rate small enough that %v would print scientific notation, whose
	// '-' breaks the min-max separator on re-parse.
	tiny, err := ParseSpec("smallworld", "rate=0.00001-100")
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, varied, tiny)
	for _, s := range specs {
		name := s.Name()
		family, params, ok := strings.Cut(strings.TrimPrefix(name, "gen:"), ":")
		if !ok {
			t.Fatalf("name %q has no parameter tail", name)
		}
		back, err := ParseSpec(family, params)
		if err != nil {
			t.Fatalf("name %q does not re-parse: %v", name, err)
		}
		if back != s {
			t.Fatalf("name %q re-parses to %+v, want %+v", name, back, s)
		}
	}
}

// TestFamilySpecificParamsNotValidatedGlobally pins that a family is not
// rejected over the defaults of parameters it never uses (e.g. a 6-neuron
// smallworld net vs the default clusters=8).
func TestFamilySpecificParamsNotValidatedGlobally(t *testing.T) {
	for _, tc := range []struct{ family, params string }{
		{"smallworld", "n=6,k=2"},
		{"scalefree", "n=3,k=2"},
		{"sparserandom", "n=6,k=2"},
	} {
		if _, err := Build(mustSpec(t, tc.family, tc.params)); err != nil {
			t.Fatalf("%s %q: %v", tc.family, tc.params, err)
		}
	}
}

func TestRegisteredInAppRegistry(t *testing.T) {
	names := apps.Names()
	reg := map[string]bool{}
	for _, n := range names {
		reg[n] = true
	}
	for _, family := range Families() {
		if !reg["gen:"+family] {
			t.Fatalf("family %s not registered (registry: %v)", family, names)
		}
	}
	app, err := apps.Build("gen:smallworld:n=64,seed=7", apps.Config{Seed: 1, DurationMs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if app.Graph.Neurons != 64 {
		t.Fatalf("neurons = %d, want 64", app.Graph.Neurons)
	}
	// The spec's seed must override the config's.
	again, err := apps.Build("gen:smallworld:n=64,seed=7", apps.Config{Seed: 99, DurationMs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(app.Graph, again.Graph) {
		t.Fatal("spec seed did not override config seed")
	}
}
