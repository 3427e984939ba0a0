package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	snnmap "repro"
)

func TestFleetMixPlanIsAFunctionOfTheSeed(t *testing.T) {
	encode := func(seed int64) []byte {
		t.Helper()
		plan, err := planFleetMix(seed, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := encode(1), encode(1), encode(2)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 1 produced two different plans")
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 1 and 2 produced the same plan")
	}
}

func TestFleetMixRateAndClassShares(t *testing.T) {
	const d = 30 * time.Second
	want := map[string]float64{classCold: 0.15, classWarm: 0.45, classSweep: 0.10, classRepeat: 0.30}
	for seed := int64(1); seed <= 5; seed++ {
		plan, err := planFleetMix(seed, d)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(len(plan.Arrivals))
		if rate := n / d.Seconds(); math.Abs(rate-mixRate)/mixRate > 0.05 {
			t.Errorf("seed %d: rate %.2f jobs/s, want %v ± 5%%", seed, rate, mixRate)
		}
		counts := map[string]float64{}
		dueOf := map[string]time.Duration{} // content address → earliest due
		for _, s := range plan.Warmup {
			dueOf[s.Hash()] = -time.Hour
		}
		for i, a := range plan.Arrivals {
			if i > 0 && a.Due < plan.Arrivals[i-1].Due {
				t.Fatalf("seed %d: arrival %d is due before its predecessor", seed, i)
			}
			counts[a.Class]++
			h := a.Spec.Hash()
			first, seen := dueOf[h]
			switch {
			case a.Class == classRepeat && (!seen || a.Due-first < repeatAge):
				t.Errorf("seed %d: repeat %d does not repeat a spec due %v earlier", seed, i, repeatAge)
			case a.Class != classRepeat && seen:
				t.Errorf("seed %d: %s arrival %d reuses a content address", seed, a.Class, i)
			}
			if !seen {
				dueOf[h] = a.Due
			}
		}
		for class, share := range want {
			if got := counts[class] / n; math.Abs(got-share) > 0.03 {
				t.Errorf("seed %d: %s share %.3f, want %.2f ± 0.03", seed, class, got, share)
			}
		}
	}
}

func TestClosedLoopRotatesTheShapes(t *testing.T) {
	for _, shapes := range [][]snnmap.JobSpec{replayShapes, partitionShapes} {
		plan, err := planClosed(shapes, 7)
		if err != nil {
			t.Fatal(err)
		}
		again, err := planClosed(shapes, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := mustJSON(t, plan), mustJSON(t, again); !bytes.Equal(a, b) {
			t.Fatal("seed 7 produced two different closed-loop plans")
		}
		seen := map[int]bool{}
		for client := 0; client < closedClients; client++ {
			for i := 0; i < 2*len(shapes); i++ {
				index, s := plan.job(client, i)
				if seen[index] {
					t.Fatalf("job index %d issued twice", index)
				}
				seen[index] = true
				// Each client walks the whole rotation, the two clients half a turn apart.
				want := plan.Shapes[(i+client*len(shapes)/closedClients)%len(shapes)]
				if s.SessionKey() != want.SessionKey() || s.Techniques[0] != want.Techniques[0] {
					t.Errorf("client %d job %d: shape %s, want %s", client, i, s.SessionKey(), want.SessionKey())
				}
				if s.Hash() == want.Hash() {
					t.Errorf("client %d job %d: content address equals its shape's", client, i)
				}
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
