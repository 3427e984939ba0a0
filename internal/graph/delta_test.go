package graph

import (
	"reflect"
	"testing"

	"repro/internal/spike"
)

func TestWorkloadDeltaEmpty(t *testing.T) {
	if !(WorkloadDelta{}).Empty() {
		t.Fatal("zero delta must be empty")
	}
	if (WorkloadDelta{RateShifts: []RateShift{{Neuron: 0, Factor: 1}}}).Empty() {
		t.Fatal("rate shift delta must not be empty")
	}
}

func TestWorkloadDeltaApply(t *testing.T) {
	g := hgTestGraph()
	d := WorkloadDelta{
		AddSynapses:    []Synapse{{Pre: 3, Post: 0, Weight: 1, DelayMs: 1}},
		RemoveSynapses: []Synapse{{Pre: 0, Post: 2}},
		RateShifts:     []RateShift{{Neuron: 0, Factor: 2}, {Neuron: 1, Factor: 0}},
	}
	out, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	// The base graph is untouched.
	if len(g.CSR.Post) != 4 || len(g.Spikes[0]) != 3 {
		t.Fatal("delta mutated the base graph")
	}
	// One 0→2 instance removed (the first), the add appended to 3's
	// out-list.
	want := CSR{Start: []int32{0, 2, 3, 3, 4}, Post: []int32{1, 2, 1, 0}}
	if !reflect.DeepEqual(out.CSR, want) {
		t.Fatalf("CSR %v, want %v", out.CSR, want)
	}
	// Factor 2 duplicates evenly and keeps timestamps non-decreasing;
	// factor 0 silences.
	if want := (spike.Train{0, 0, 5, 5, 10, 10}); !reflect.DeepEqual(out.Spikes[0], want) {
		t.Fatalf("doubled train %v, want %v", out.Spikes[0], want)
	}
	if len(out.Spikes[1]) != 0 {
		t.Fatalf("silenced train still has %d spikes", len(out.Spikes[1]))
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadDeltaApplyRejects(t *testing.T) {
	g := hgTestGraph()
	cases := []WorkloadDelta{
		{AddSynapses: []Synapse{{Pre: 0, Post: 9}}},
		{AddSynapses: []Synapse{{Pre: -1, Post: 0}}},
		{AddSynapses: []Synapse{{Pre: 0, Post: 1, DelayMs: -1}}},
		{RemoveSynapses: []Synapse{{Pre: 2, Post: 3}}},                    // no such synapse
		{RemoveSynapses: []Synapse{{Pre: 0, Post: 1}, {Pre: 0, Post: 1}}}, // only one exists
		{RemoveSynapses: []Synapse{{Pre: 0, Post: 9}}},
		{RateShifts: []RateShift{{Neuron: 9, Factor: 1}}},
		{RateShifts: []RateShift{{Neuron: 0, Factor: -0.5}}},
		{RateShifts: []RateShift{{Neuron: 0, Factor: 1}, {Neuron: 0, Factor: 2}}},
	}
	for i, d := range cases {
		if _, err := d.Apply(g); err == nil {
			t.Fatalf("case %d: delta %+v must be rejected", i, d)
		}
	}
}

func TestResampleTrain(t *testing.T) {
	tr := spike.Train{0, 10, 20, 30}
	if got := resampleTrain(tr, 0.5); !reflect.DeepEqual(got, spike.Train{0, 20}) {
		t.Fatalf("thinned %v", got)
	}
	if got := resampleTrain(tr, 1); !reflect.DeepEqual(got, tr) {
		t.Fatalf("identity %v", got)
	}
	if got := resampleTrain(spike.Train{}, 3); len(got) != 0 {
		t.Fatalf("empty train grew to %v", got)
	}
	// Any resampled train must satisfy the Train invariant.
	for _, f := range []float64{0, 0.3, 0.7, 1.5, 2.8} {
		got := resampleTrain(tr, f)
		if err := got.Validate(); err != nil {
			t.Fatalf("factor %g: %v", f, err)
		}
	}
}

func TestWorkloadDeltaTouched(t *testing.T) {
	g := hgTestGraph()
	d := WorkloadDelta{
		AddSynapses: []Synapse{{Pre: 3, Post: 0}},
		RateShifts:  []RateShift{{Neuron: 0, Factor: 2}},
	}
	// Rate shift on 0 touches 0 plus its fan-out {1, 2}; the add touches
	// {3, 0}.
	if got, want := d.Touched(g), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("touched %v, want %v", got, want)
	}
}
