package snn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/neuron"
	"repro/internal/spike"
)

func TestNetworkBuilder(t *testing.T) {
	net := New(1)
	in := net.CreateSpikeSource("in", 10)
	ex := net.CreateGroup("ex", 20, Excitatory)
	if _, err := net.ConnectFull(in, ex, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	if net.TotalNeurons() != 30 {
		t.Fatalf("TotalNeurons = %d", net.TotalNeurons())
	}
	if net.TotalSynapses() != 200 {
		t.Fatalf("TotalSynapses = %d", net.TotalSynapses())
	}
}

func TestConnectValidation(t *testing.T) {
	net := New(1)
	in := net.CreateSpikeSource("in", 4)
	ex := net.CreateGroup("ex", 4, Excitatory)
	other := New(2).CreateGroup("foreign", 4, Excitatory)

	if _, err := net.ConnectFull(ex, in, 1, 1); err == nil {
		t.Fatal("connecting into a spike source must fail")
	}
	if _, err := net.ConnectFull(in, other, 1, 1); err == nil {
		t.Fatal("cross-network connection must fail")
	}
	if _, err := net.ConnectFull(in, ex, 1, 0); err == nil {
		t.Fatal("zero delay must fail")
	}
	if _, err := net.ConnectRandom(in, ex, 1.5, 0, 1, 1); err == nil {
		t.Fatal("probability > 1 must fail")
	}
	if _, err := net.ConnectRandom(in, ex, math.NaN(), 0, 1, 1); err == nil {
		t.Fatal("NaN probability must fail")
	}
	if _, err := net.ConnectOneToOne(in, net.CreateGroup("big", 5, Excitatory), 1, 1); err == nil {
		t.Fatal("one-to-one with mismatched sizes must fail")
	}
	if _, err := net.ConnectCustom(in, ex, []Edge{{SrcLocal: 9, DstLocal: 0, Weight: 1, DelayMs: 1}}); err == nil {
		t.Fatal("out-of-range custom edge must fail")
	}
	if _, err := net.ConnectCustom(in, ex, []Edge{{SrcLocal: 0, DstLocal: 0, Weight: 1, DelayMs: 0}}); err == nil {
		t.Fatal("custom edge with zero delay must fail")
	}
}

func TestConnectFullSkipsSelf(t *testing.T) {
	net := New(1)
	g := net.CreateGroup("g", 5, Excitatory)
	c, err := net.ConnectFull(g, g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Edges) != 5*4 {
		t.Fatalf("recurrent full edges = %d, want 20", len(c.Edges))
	}
	for _, e := range c.Edges {
		if e.SrcLocal == e.DstLocal {
			t.Fatal("self connection present")
		}
	}
}

func TestConnectRandomDensity(t *testing.T) {
	net := New(42)
	a := net.CreateSpikeSource("a", 100)
	b := net.CreateGroup("b", 100, Excitatory)
	c, err := net.ConnectRandom(a, b, 0.1, 0.5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(c.Edges)) / 10000.0
	if got < 0.07 || got > 0.13 {
		t.Fatalf("random density = %v, want ~0.1", got)
	}
}

func TestConnectKernel2D(t *testing.T) {
	net := New(1)
	a := net.CreateSpikeSource("a", 16)
	b := net.CreateGroup("b", 16, Excitatory)
	kernel := [][]float64{
		{0, 1, 0},
		{1, 2, 1},
		{0, 1, 0},
	}
	c, err := net.ConnectKernel2D(a, b, 4, 4, kernel, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Interior pixel (1,1) has all 5 taps; corner (0,0) has 3.
	countFrom := func(src int32) int {
		n := 0
		for _, e := range c.Edges {
			if e.SrcLocal == src {
				n++
			}
		}
		return n
	}
	if got := countFrom(5); got != 5 {
		t.Fatalf("interior fan-out = %d, want 5", got)
	}
	if got := countFrom(0); got != 3 {
		t.Fatalf("corner fan-out = %d, want 3", got)
	}
	if _, err := net.ConnectKernel2D(a, b, 4, 4, [][]float64{{1, 2}, {3, 4}}, 1, 1); err == nil {
		t.Fatal("even kernel must fail")
	}
	if _, err := net.ConnectKernel2D(a, b, 3, 3, kernel, 1, 1); err == nil {
		t.Fatal("grid size mismatch must fail")
	}
}

func TestSimSpikeSourceReplay(t *testing.T) {
	net := New(1)
	in := net.CreateSpikeSource("in", 2)
	sim, err := NewSim(net)
	if err != nil {
		t.Fatal(err)
	}
	trains := []spike.Train{{1, 5, 9}, {0, 2}}
	if err := sim.SetSpikeTrains(in, trains); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	got := sim.Spikes()
	if !reflect.DeepEqual(got[0], trains[0]) || !reflect.DeepEqual(got[1], trains[1]) {
		t.Fatalf("replayed spikes = %v, want %v", got, trains)
	}
}

func TestSimPropagationWithDelay(t *testing.T) {
	net := New(1)
	in := net.CreateSpikeSource("in", 1)
	ex := net.CreateGroup("ex", 1, Excitatory)
	// One huge synapse: every input spike forces an output spike after
	// the delay.
	const delay = 4
	if _, err := net.ConnectFull(in, ex, 100, delay); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSpikeTrains(in, []spike.Train{{2, 20}}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(40); err != nil {
		t.Fatal(err)
	}
	exSpikes, err := sim.GroupSpikes(ex)
	if err != nil {
		t.Fatal(err)
	}
	want := spike.Train{2 + delay, 20 + delay}
	if !reflect.DeepEqual(exSpikes[0], want) {
		t.Fatalf("output spikes = %v, want %v", exSpikes[0], want)
	}
}

func TestSimInhibitionSuppresses(t *testing.T) {
	build := func(withInhibition bool) int {
		net := New(7)
		drive := net.CreateSpikeSource("drive", 1)
		inh := net.CreateSpikeSource("inhDrive", 1)
		ex := net.CreateGroup("ex", 1, Excitatory)
		if _, err := net.ConnectFull(drive, ex, 8, 1); err != nil {
			t.Fatal(err)
		}
		if withInhibition {
			if _, err := net.ConnectFull(inh, ex, -40, 1); err != nil {
				t.Fatal(err)
			}
		}
		sim, err := NewSim(net)
		if err != nil {
			t.Fatal(err)
		}
		drv := spike.Regular(2, 0, 400)
		if err := sim.SetSpikeTrains(drive, []spike.Train{drv}); err != nil {
			t.Fatal(err)
		}
		if err := sim.SetSpikeTrains(inh, []spike.Train{spike.Regular(2, 1, 400)}); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(400); err != nil {
			t.Fatal(err)
		}
		sp, err := sim.GroupSpikes(ex)
		if err != nil {
			t.Fatal(err)
		}
		return len(sp[0])
	}
	without := build(false)
	with := build(true)
	if without == 0 {
		t.Fatal("excitatory neuron never fired under drive")
	}
	if with >= without {
		t.Fatalf("inhibition did not reduce firing: %d >= %d", with, without)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []spike.Train {
		net := New(99)
		in := net.CreateSpikeSource("in", 10)
		ex := net.CreateGroup("ex", 20, Excitatory)
		if _, err := net.ConnectRandom(in, ex, 0.5, 2, 6, 2); err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(net)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		if err := sim.SetSpikeTrains(in, spike.PoissonGroup(rng, 10, 80, 500)); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(500); err != nil {
			t.Fatal(err)
		}
		out := make([]spike.Train, len(sim.Spikes()))
		for i, tr := range sim.Spikes() {
			out[i] = tr.Clone()
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical seeds must give identical simulations")
	}
}

func TestSimIzhikevichGroup(t *testing.T) {
	net := New(1)
	in := net.CreateSpikeSource("in", 1)
	ex := net.CreateGroup("ex", 1, Excitatory).SetIzhikevich(neuron.RegularSpiking)
	if _, err := net.ConnectFull(in, ex, 20, 1); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSpikeTrains(in, []spike.Train{spike.Regular(1, 0, 300)}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(300); err != nil {
		t.Fatal(err)
	}
	sp, _ := sim.GroupSpikes(ex)
	if len(sp[0]) == 0 {
		t.Fatal("Izhikevich neuron never fired under strong drive")
	}
}

func TestSimSTDPPotentiatesCausalPair(t *testing.T) {
	net := New(1)
	pre := net.CreateSpikeSource("pre", 1)
	post := net.CreateSpikeSource("post", 1) // drives the post neuron directly
	ex := net.CreateGroup("ex", 1, Excitatory)
	weak, err := net.ConnectFull(pre, ex, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	weak.Plastic = true
	weak.STDP = neuron.DefaultSTDP()
	if _, err := net.ConnectFull(post, ex, 100, 1); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(net)
	if err != nil {
		t.Fatal(err)
	}
	// Pre fires 3 ms before the post neuron is forced to fire, repeatedly.
	preTrain := spike.Regular(50, 0, 1000)
	postTrain := spike.Regular(50, 2, 1000) // arrives at ex at +3 via delay 1
	if err := sim.SetSpikeTrains(pre, []spike.Train{preTrain}); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSpikeTrains(post, []spike.Train{postTrain}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	w := sim.SynapseWeights()
	// First synapse in CSR order belongs to the plastic connection
	// (pre group is neuron 0).
	if w[0] <= 0.1 {
		t.Fatalf("causal STDP should potentiate: w = %v", w[0])
	}
}

func TestSimGraphExport(t *testing.T) {
	net := New(3)
	in := net.CreateSpikeSource("in", 5)
	ex := net.CreateGroup("ex", 7, Excitatory)
	if _, err := net.ConnectFull(in, ex, 3, 1); err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if err := sim.SetSpikeTrains(in, spike.PoissonGroup(rng, 5, 50, 300)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(300); err != nil {
		t.Fatal(err)
	}
	g, err := sim.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Neurons != 12 {
		t.Fatalf("graph neurons = %d, want 12", g.Neurons)
	}
	if len(g.CSR.Post) != 35 {
		t.Fatalf("graph synapses = %d, want 35", len(g.CSR.Post))
	}
	if len(g.Groups) != 2 || g.Groups[1].Start != 5 || g.Groups[1].Kind != "excitatory" {
		t.Fatalf("graph groups = %+v", g.Groups)
	}
	if g.DurationMs != 300 {
		t.Fatalf("graph duration = %d", g.DurationMs)
	}
	if g.TotalSpikes() == 0 {
		t.Fatal("graph has no spikes")
	}
}

func TestSimMultipleRunsAccumulate(t *testing.T) {
	net := New(1)
	in := net.CreateSpikeSource("in", 1)
	sim, err := NewSim(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSpikeTrains(in, []spike.Train{{1, 15}}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if sim.Now() != 20 {
		t.Fatalf("Now = %d, want 20", sim.Now())
	}
	if !reflect.DeepEqual(sim.Spikes()[0], spike.Train{1, 15}) {
		t.Fatalf("accumulated spikes = %v", sim.Spikes()[0])
	}
}

func TestNewSimRejectsEmpty(t *testing.T) {
	if _, err := NewSim(New(1)); err == nil {
		t.Fatal("empty network must be rejected")
	}
	if _, err := NewSim(nil); err == nil {
		t.Fatal("nil network must be rejected")
	}
}

func TestSetSpikeTrainsValidation(t *testing.T) {
	net := New(1)
	in := net.CreateSpikeSource("in", 2)
	ex := net.CreateGroup("ex", 1, Excitatory)
	sim, err := NewSim(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSpikeTrains(ex, []spike.Train{{}}); err == nil {
		t.Fatal("setting trains on a model group must fail")
	}
	if err := sim.SetSpikeTrains(in, []spike.Train{{}}); err == nil {
		t.Fatal("wrong train count must fail")
	}
	if err := sim.SetSpikeTrains(in, []spike.Train{{3, 1}, {}}); err == nil {
		t.Fatal("unsorted train must fail")
	}
}
