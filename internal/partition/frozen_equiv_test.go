package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/genapp"
	"repro/internal/hardware"
)

// checkMatchesFrozen runs Greedy, Refine (from the greedy seed and from a
// given start) and HyperCut against their frozen pre-rewrite bodies and
// requires identical assignments and, for Refine, the same returned gain.
func checkMatchesFrozen(t *testing.T, name string, p *Problem, start Assignment) {
	t.Helper()
	got, err := Greedy{}.Partition(p)
	if err != nil {
		t.Fatalf("%s: greedy: %v", name, err)
	}
	want, err := frozenGreedy(p)
	if err != nil {
		t.Fatalf("%s: frozen greedy: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: greedy diverges from the frozen body", name)
	}

	for _, a := range []Assignment{got, start} {
		for _, passes := range []int{1, 8} {
			ra, fa := a.Clone(), a.Clone()
			gain, wantGain := Refine(p, ra, passes), frozenRefine(p, fa, passes)
			if gain != wantGain || !reflect.DeepEqual(ra, fa) {
				t.Fatalf("%s: Refine(%d passes) gain %d, frozen %d; assignments equal %v",
					name, passes, gain, wantGain, reflect.DeepEqual(ra, fa))
			}
		}
	}

	hc, err := HyperCut{}.Partition(p)
	if err != nil {
		t.Fatalf("%s: hypercut: %v", name, err)
	}
	wantHC, err := frozenHyperCut(HyperCut{}, p)
	if err != nil {
		t.Fatalf("%s: frozen hypercut: %v", name, err)
	}
	if !reflect.DeepEqual(hc, wantHC) {
		t.Fatalf("%s: hypercut diverges from the frozen body", name)
	}
}

// TestPartitionersMatchFrozenRandom covers random graphs with self-loops
// and parallel synapses for C = 2..8, both with spare capacity (moves
// and swaps) and at exactly full capacity (swaps only).
func TestPartitionersMatchFrozenRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for c := 2; c <= 8; c++ {
		for trial := 0; trial < 20; trial++ {
			for _, full := range []bool{false, true} {
				size := 2 + rng.Intn(12)
				n := c * size
				if !full {
					n -= 1 + rng.Intn(size)
				}
				g := randomGraph(rng, n, (2+rng.Intn(6))*n)
				p, err := NewProblem(g, c, size)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("C=%d trial %d full=%v", c, trial, full)
				checkMatchesFrozen(t, name, p, randomAssignment(rng, p))
			}
		}
	}
}

// TestPartitionersMatchFrozenGenApp covers every scenario family at
// n=512 under the tree and mesh architectures' default sizing (~n/4
// neurons per crossbar with 15% slack, as the root registry sizes them).
func TestPartitionersMatchFrozenGenApp(t *testing.T) {
	if testing.Short() {
		t.Skip("frozen-body equivalence on generated apps runs in the full suite")
	}
	const n = 512
	size := (n*115/100 + 3) / 4
	archs := []hardware.Arch{
		hardware.ForNeurons(n, size),
		hardware.MeshChip((n+size-1)/size, size),
	}
	rng := rand.New(rand.NewSource(5))
	for _, family := range genapp.Families() {
		app, err := apps.Build(fmt.Sprintf("gen:%s:n=%d", family, n), apps.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range archs {
			p, err := NewProblem(app.Graph, arch.Crossbars, arch.CrossbarSize)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesFrozen(t, family+"/"+arch.Name, p, randomAssignment(rng, p))
		}
	}
}
