package snnmap

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestJobSpecNormalizeDefaults(t *testing.T) {
	got, err := JobSpec{App: " HW "}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{
		App: "HW", Arch: "tree", Techniques: []string{"pso"},
		Seed: 1, AER: "per-synapse", SwarmSize: 100, Iterations: 100,
	}
	if got.App != want.App || got.Arch != want.Arch || got.Seed != want.Seed ||
		got.AER != want.AER || got.SwarmSize != want.SwarmSize || got.Iterations != want.Iterations ||
		len(got.Techniques) != 1 || got.Techniques[0] != "pso" {
		t.Fatalf("normalized = %+v, want %+v", got, want)
	}

	// A sparse spec and its fully spelled-out equivalent share one
	// canonical form, hash and session key.
	full, err := want.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Canonical() != full.Canonical() {
		t.Fatalf("canonical drift:\n%s\n%s", got.Canonical(), full.Canonical())
	}
	if got.Hash() != full.Hash() {
		t.Fatal("hash of equal canonical specs differs")
	}
	if len(got.Hash()) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", got.Hash())
	}
}

func TestJobSpecNormalizeRejects(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{}, "without an application"},
		{JobSpec{App: "HW", Arch: "nope"}, "unknown architecture"},
		{JobSpec{App: "HW", Techniques: []string{"nope"}}, "unknown partitioner"},
		{JobSpec{App: "HW", AER: "nope"}, "unknown AER mode"},
		{JobSpec{App: "HW", DurationMs: -1}, "negative duration_ms"},
		{JobSpec{App: "HW", Crossbars: -1}, "negative architecture sizing"},
		{JobSpec{App: "HW", SwarmSize: -2}, "negative swarm shape"},
	}
	for _, c := range cases {
		if _, err := c.spec.Normalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Normalize(%+v) error = %v, want containing %q", c.spec, err, c.want)
		}
	}
}

// TestJobSpecAppCanonicalization pins that equivalent application
// spellings — legacy aliases and reordered parameter tails — share one
// content address and session key, so they cannot duplicate cached work.
func TestJobSpecAppCanonicalization(t *testing.T) {
	short, err := JobSpec{App: "HD"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	long, err := JobSpec{App: "digit_recognition"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if long.App != "HD" || long.Hash() != short.Hash() || long.SessionKey() != short.SessionKey() {
		t.Fatalf("alias not canonicalized: %q (hash match %v)", long.App, long.Hash() == short.Hash())
	}

	a, err := JobSpec{App: "gen:modular:n=48,seed=5"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{App: "gen:modular:seed=5,n=48"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.App != b.App || a.Hash() != b.Hash() {
		t.Fatalf("parameter order leaked into the content address: %q vs %q", a.App, b.App)
	}
	// And the canonical spec still builds the same application.
	if _, err := BuildApp(a.App, AppConfig{Seed: 1, DurationMs: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestJobSpecKeysSeparateConcerns(t *testing.T) {
	base, err := JobSpec{App: "gen:modular:n=64", Arch: "mesh", Techniques: []string{"greedy"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	// A different technique changes the content address but not the
	// session key — that is exactly what lets one warm session serve
	// jobs whose results must not be conflated.
	other := base
	other.Techniques = []string{"neutrams"}
	if base.SessionKey() != other.SessionKey() {
		t.Fatal("technique leaked into the session key")
	}
	if base.Hash() == other.Hash() {
		t.Fatal("technique not captured by the content address")
	}

	// A different seed changes both: the app build is seed-dependent.
	reseeded := base
	reseeded.Seed = 7
	if base.SessionKey() == reseeded.SessionKey() {
		t.Fatal("seed not captured by the session key")
	}
	if base.Hash() == reseeded.Hash() {
		t.Fatal("seed not captured by the content address")
	}
}

func TestJobSpecPartitioners(t *testing.T) {
	spec, err := JobSpec{App: "HW", Techniques: []string{"greedy", "neutrams"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := spec.Partitioners()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d partitioners, want 2", len(pts))
	}
}

// TestRegistriesConcurrentReaders hammers every registry surface a server
// handler touches per request — partitioner, architecture, experiment and
// application lookups plus name listings — from many goroutines, with a
// concurrent writer registering fresh names. The -race CI job turns any
// unsynchronized access into a failure.
func TestRegistriesConcurrentReaders(t *testing.T) {
	const goroutines = 16
	const iters = 200

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				if len(PartitionerNames()) == 0 || len(ArchNames()) == 0 ||
					len(ExperimentNames()) == 0 || len(AppNames()) == 0 {
					t.Error("registry listing came back empty")
					return
				}
				if _, err := NewPartitioner("greedy", PartitionerSpec{}); err != nil {
					t.Error(err)
					return
				}
				if _, err := LookupExperiment("fig5"); err != nil {
					t.Error(err)
					return
				}
				// Unknown-name paths exercise the lookup miss and the
				// prefix walk of the app registry without paying an app
				// build.
				if _, err := NewPartitioner("no-such-technique", PartitionerSpec{}); err == nil {
					t.Error("unknown partitioner accepted")
					return
				}
				if _, err := BuildApp("gen:no-such-family:n=8", AppConfig{}); err == nil {
					t.Error("unknown application accepted")
					return
				}
				if _, err := (JobSpec{App: "HW", Techniques: []string{"pso", "greedy"}}).Normalize(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestRegistryConcurrentRegisterAndLookup exercises the shared registry
// implementation with a genuine writer racing the readers, on a private
// instance so the process-global registries (whose name lists other
// tests pin exactly) stay untouched. internal/apps carries the twin test
// for its own registry implementation.
func TestRegistryConcurrentRegisterAndLookup(t *testing.T) {
	var reg registry[int]
	const writers, readers, iters = 4, 8, 200

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				reg.register(fmt.Sprintf("w%d-%d", w, i), i)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				names := reg.names()
				for _, n := range names {
					if _, ok := reg.lookup(n); !ok {
						t.Errorf("listed name %q not found", n)
						return
					}
				}
				_ = reg.known()
			}
		}()
	}
	close(start)
	wg.Wait()
	if got, want := len(reg.names()), writers*iters; got != want {
		t.Fatalf("registry holds %d entries, want %d", got, want)
	}
}

// TestJobSpecTechSeeds pins the seed-sweep field: it extends
// the canonical form (and content address) only when set, keeps the
// session key untouched (reseeding the technique reuses the warm
// session by construction), and is validated against the technique's
// ability to be reseeded.
func TestJobSpecTechSeeds(t *testing.T) {
	base, err := JobSpec{App: "gen:modular:n=48,dur=120,seed=5", Arch: "tree", Techniques: []string{"random"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(base.Canonical(), "tech_seeds") {
		t.Fatalf("unset tech_seeds leaked into the canonical form: %s", base.Canonical())
	}

	swept := base
	swept.TechSeeds = []int64{3, 1, 2}
	swept, err = swept.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(swept.Canonical(), "tech_seeds=3,1,2") {
		t.Fatalf("canonical form missing the seed list: %s", swept.Canonical())
	}
	if swept.Hash() == base.Hash() {
		t.Fatal("tech_seeds not captured by the content address")
	}
	if swept.SessionKey() != base.SessionKey() {
		t.Fatal("tech_seeds leaked into the session key")
	}
	// Seed order is a different sweep, not a reordering of the same one.
	reordered := base
	reordered.TechSeeds = []int64{1, 2, 3}
	reordered, err = reordered.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if reordered.Hash() == swept.Hash() {
		t.Fatal("seed order not captured by the content address")
	}

	// Exactly one technique, and it must be reseedable.
	multi := base
	multi.Techniques = []string{"random", "pso"}
	multi.TechSeeds = []int64{1}
	if _, err := multi.Normalize(); err == nil || !strings.Contains(err.Error(), "exactly one technique") {
		t.Fatalf("multi-technique sweep error = %v", err)
	}
	deterministic := base
	deterministic.Techniques = []string{"greedy"}
	deterministic.TechSeeds = []int64{1}
	if _, err := deterministic.Normalize(); err == nil || !strings.Contains(err.Error(), "deterministic") {
		t.Fatalf("deterministic sweep error = %v", err)
	}
}
