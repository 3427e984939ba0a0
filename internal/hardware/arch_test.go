package hardware

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/noc"
	"repro/internal/spike"
)

func TestCxQuadPreset(t *testing.T) {
	a := CxQuad()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Crossbars != 4 || a.CrossbarSize != 256 {
		t.Fatalf("CxQuad = %+v", a)
	}
	if a.Capacity() != 1024 {
		t.Fatalf("capacity = %d, want 1024", a.Capacity())
	}
	if !a.Fits(1024) || a.Fits(1025) {
		t.Fatal("Fits boundary wrong")
	}
	if a.Interconnect != noc.Tree {
		t.Fatal("CxQuad must use NoC-tree")
	}
}

func TestMeshChipPreset(t *testing.T) {
	a := MeshChip(16, 128)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Interconnect != noc.Mesh {
		t.Fatal("MeshChip must use NoC-mesh")
	}
	if a.Capacity() != 2048 {
		t.Fatalf("capacity = %d", a.Capacity())
	}
}

func TestForNeurons(t *testing.T) {
	a := ForNeurons(1000, 90)
	if a.Crossbars != 12 {
		t.Fatalf("crossbars = %d, want ceil(1000/90)=12", a.Crossbars)
	}
	if !a.Fits(1000) {
		t.Fatal("sized architecture must fit the network")
	}
	b := ForNeurons(0, 128)
	if b.Crossbars != 1 {
		t.Fatalf("minimum crossbars = %d, want 1", b.Crossbars)
	}
}

func TestValidateRejects(t *testing.T) {
	good := CxQuad()
	cases := []struct {
		name   string
		mutate func(*Arch)
	}{
		{"no crossbars", func(a *Arch) { a.Crossbars = 0 }},
		{"no size", func(a *Arch) { a.CrossbarSize = 0 }},
		{"bad interconnect", func(a *Arch) { a.Interconnect = noc.Kind(9) }},
		{"bad clock", func(a *Arch) { a.CyclesPerMs = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := good
			tc.mutate(&a)
			if err := a.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestLocalEventEnergyGrowsWithCrossbarSize(t *testing.T) {
	small := ForNeurons(1000, 90)
	big := ForNeurons(1000, 1440)
	if small.LocalEventPJ() >= big.LocalEventPJ() {
		t.Fatalf("local event energy must grow with crossbar size: %f vs %f",
			small.LocalEventPJ(), big.LocalEventPJ())
	}
}

func TestNoCConfigDerivation(t *testing.T) {
	a := CxQuad()
	cfg := a.NoCConfig()
	if cfg.Kind != noc.Tree || cfg.Endpoints != 4 || cfg.TreeArity != 4 {
		t.Fatalf("NoCConfig = %+v", cfg)
	}
	if cfg.HopEnergyPJ != a.Energy.HopPJ || cfg.RouterEnergyPJ != a.Energy.RouterPJ {
		t.Fatal("energy constants not propagated")
	}
	if _, err := noc.NewSimulator(cfg); err != nil {
		t.Fatalf("derived config not accepted by simulator: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	a := CxQuad()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, a)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString(`{"crossbars":0}`)); err == nil {
		t.Fatal("invalid arch must be rejected")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`garbage`)); err == nil {
		t.Fatal("malformed JSON must be rejected")
	}
}

func TestLocalActivity(t *testing.T) {
	csr, err := graph.NewCSR(4, []graph.Synapse{
		{Pre: 0, Post: 1}, // same crossbar under assign below
		{Pre: 0, Post: 2}, // crosses
		{Pre: 2, Post: 3}, // same
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &graph.SpikeGraph{
		Neurons: 4,
		CSR:     csr,
		Spikes: []spike.Train{
			{0, 1, 2}, // 3 spikes
			{},
			{5, 6}, // 2 spikes
			{},
		},
	}
	a := CxQuad()
	assign := []int{0, 0, 1, 1}
	st, err := LocalActivity(g, assign, a)
	if err != nil {
		t.Fatal(err)
	}
	// Local events: synapse 0->1 carries 3, synapse 2->3 carries 2.
	if st.Events != 5 {
		t.Fatalf("events = %d, want 5", st.Events)
	}
	want := 5 * a.LocalEventPJ()
	if st.EnergyPJ != want {
		t.Fatalf("energy = %f, want %f", st.EnergyPJ, want)
	}
	if _, err := LocalActivity(g, []int{0}, a); err == nil {
		t.Fatal("short assignment must fail")
	}
}
