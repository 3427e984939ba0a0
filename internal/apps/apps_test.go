package apps

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/spike"
)

func TestSyntheticSynapseCountsMatchPaper(t *testing.T) {
	// Paper §V-A: 1x200 has 2000 synapses, 4x200 has 122000 ("dense").
	cases := []struct {
		layers, width, want int
	}{
		{1, 200, 2000},
		{1, 600, 6000},
		{3, 200, 82000},
		{4, 200, 122000},
	}
	for _, tc := range cases {
		app, err := Synthetic(Config{Seed: 1, DurationMs: 200}, tc.layers, tc.width)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(app.Graph.CSR.Post); got != tc.want {
			t.Fatalf("%dx%d synapses = %d, want %d", tc.layers, tc.width, got, tc.want)
		}
		if app.Graph.Neurons != 10+tc.layers*tc.width {
			t.Fatalf("%dx%d neurons = %d", tc.layers, tc.width, app.Graph.Neurons)
		}
	}
}

func TestSyntheticAllLayersActive(t *testing.T) {
	app, err := Synthetic(Config{Seed: 2, DurationMs: 1000}, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph
	for _, grp := range g.Groups {
		spikes := int64(0)
		for i := grp.Start; i < grp.Start+grp.N; i++ {
			spikes += int64(len(g.Spikes[i]))
		}
		if spikes == 0 {
			t.Fatalf("group %s silent", grp.Name)
		}
	}
}

func TestSyntheticRejectsBadTopology(t *testing.T) {
	if _, err := Synthetic(Config{Seed: 1}, 0, 10); err == nil {
		t.Fatal("0 layers must fail")
	}
	if _, err := Synthetic(Config{Seed: 1}, 1, 0); err == nil {
		t.Fatal("0 width must fail")
	}
}

func TestHelloWorldShape(t *testing.T) {
	app, err := HelloWorld(Config{Seed: 3, DurationMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if app.Graph.Neurons != 126 {
		t.Fatalf("neurons = %d, want 117+9", app.Graph.Neurons)
	}
	// Output layer must be driven to fire.
	out := app.Graph.Groups[1]
	active := 0
	for i := out.Start; i < out.Start+out.N; i++ {
		if len(app.Graph.Spikes[i]) > 0 {
			active++
		}
	}
	if active == 0 {
		t.Fatal("no output neuron fired")
	}
}

func TestImageSmoothingShapeAndSmoothing(t *testing.T) {
	app, err := ImageSmoothing(Config{Seed: 4, DurationMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	if app.Graph.Neurons != 2048 {
		t.Fatalf("neurons = %d, want 1024+1024", app.Graph.Neurons)
	}
	// Output rates must correlate with input rates (bright drives
	// bright) — check total activity present in both layers.
	inGrp, outGrp := app.Graph.Groups[0], app.Graph.Groups[1]
	inSpikes, outSpikes := 0, 0
	for i := inGrp.Start; i < inGrp.Start+inGrp.N; i++ {
		inSpikes += len(app.Graph.Spikes[i])
	}
	for i := outGrp.Start; i < outGrp.Start+outGrp.N; i++ {
		outSpikes += len(app.Graph.Spikes[i])
	}
	if inSpikes == 0 || outSpikes == 0 {
		t.Fatalf("activity in=%d out=%d", inSpikes, outSpikes)
	}
	if outSpikes >= inSpikes {
		t.Fatalf("smoothed output should fire less than input (threshold): in=%d out=%d", inSpikes, outSpikes)
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	k := GaussianKernel(2, 1.0)
	if len(k) != 5 {
		t.Fatalf("kernel size = %d, want 5", len(k))
	}
	var sum float64
	for _, row := range k {
		for _, v := range row {
			sum += v
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("kernel sum = %f, want 1", sum)
	}
	if k[2][2] <= k[0][0] {
		t.Fatal("kernel must peak at center")
	}
}

func TestSyntheticImageRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	img := SyntheticImage(rng, 32)
	if len(img) != 1024 {
		t.Fatalf("image size = %d", len(img))
	}
	var min, max float64 = 1, 0
	for _, v := range img {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %f outside [0,1]", v)
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min < 0.3 {
		t.Fatal("image lacks contrast")
	}
}

func TestDigitBitmaps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for d := 0; d <= 9; d++ {
		img := SyntheticDigit(rng, d)
		if len(img) != 784 {
			t.Fatalf("digit %d size = %d", d, len(img))
		}
		on := 0
		for _, v := range img {
			if v < 0 || v > 1 {
				t.Fatalf("digit %d pixel %f outside [0,1]", d, v)
			}
			if v > 0.2 {
				on++
			}
		}
		if on < 20 || on > 400 {
			t.Fatalf("digit %d has %d lit pixels, implausible", d, on)
		}
	}
}

func TestDigitRecognitionTopology(t *testing.T) {
	app, err := DigitRecognition(Config{Seed: 7, DurationMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph
	if g.Neurons != 784+250+250 {
		t.Fatalf("neurons = %d, want 1284", g.Neurons)
	}
	// Input -> exc full (196000) + exc->inh (250) + inh->exc (250*249).
	want := 784*250 + 250 + 250*249
	if len(g.CSR.Post) != want {
		t.Fatalf("synapses = %d, want %d", len(g.CSR.Post), want)
	}
	// Excitatory neurons must fire (the network is driven).
	excGrp := g.Groups[1]
	total := 0
	for i := excGrp.Start; i < excGrp.Start+excGrp.N; i++ {
		total += len(g.Spikes[i])
	}
	if total == 0 {
		t.Fatal("excitatory layer silent")
	}
}

func TestSyntheticECGBeats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const bpm = 72.0
	const dur = 20000
	ecg := SyntheticECG(rng, bpm, dur, 0.02)
	if len(ecg) != dur {
		t.Fatalf("samples = %d", len(ecg))
	}
	// Count R peaks by threshold crossing at 0.6.
	peaks := 0
	above := false
	for _, v := range ecg {
		if v > 0.6 && !above {
			peaks++
			above = true
		} else if v < 0.3 {
			above = false
		}
	}
	want := int(bpm * dur / 60000.0)
	if peaks < want-2 || peaks > want+2 {
		t.Fatalf("R peaks = %d, want ≈%d", peaks, want)
	}
	if SyntheticECG(rng, 0, 100, 0) != nil {
		t.Fatal("non-positive BPM must yield nil")
	}
}

func TestLevelCrossingReconstruction(t *testing.T) {
	// A monotone ramp produces only UP spikes; count ≈ range/delta.
	ramp := make([]float64, 1000)
	for i := range ramp {
		ramp[i] = float64(i) * 0.01
	}
	up, down := LevelCrossing(ramp, 0.1)
	if len(down) != 0 {
		t.Fatalf("ramp produced %d DOWN spikes", len(down))
	}
	// Total rise 10.0 over delta 0.1 -> ~100 crossings; spikes capped at
	// 1/ms but the ramp rises 0.01/ms so roughly one spike per 10 ms.
	if len(up) < 90 || len(up) > 110 {
		t.Fatalf("UP spikes = %d, want ≈100", len(up))
	}
	if err := up.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLevelCrossingEmptyAndBadDelta(t *testing.T) {
	if up, down := LevelCrossing(nil, 0.1); up != nil || down != nil {
		t.Fatal("empty signal must yield nil trains")
	}
	if up, _ := LevelCrossing([]float64{1, 2}, 0); up != nil {
		t.Fatal("non-positive delta must yield nil")
	}
}

func TestHeartbeatBuildAndEstimate(t *testing.T) {
	res, err := Heartbeat(HeartbeatConfig{Config: Config{Seed: 9, DurationMs: 15000}, BPM: 75})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.App.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.App.Graph.Neurons != 2+64+16 {
		t.Fatalf("neurons = %d, want 82", res.App.Graph.Neurons)
	}
	if len(res.Up) == 0 || len(res.Down) == 0 {
		t.Fatal("encoder produced no spikes")
	}
	// The liquid must respond to the beats.
	liquidTotal := 0
	for _, tr := range res.LiquidSpikes {
		liquidTotal += len(tr)
	}
	if liquidTotal == 0 {
		t.Fatal("liquid silent")
	}
	// BPM estimation from the encoder UP channel must be close to truth
	// (beats form bursts of UP spikes at the R slope).
	est := EstimateBPM(res.Up, 15000, 150, 4)
	if est < res.TrueBPM*0.75 || est > res.TrueBPM*1.25 {
		t.Fatalf("estimated BPM = %.1f, want within 25%% of %.1f", est, res.TrueBPM)
	}
}

func TestEstimateBPMKnownBursts(t *testing.T) {
	// 5 bursts over 4 seconds -> 75 BPM.
	var tr spike.Train
	for b := int64(0); b < 5; b++ {
		start := b * 800
		tr = append(tr, start, start+5, start+10)
	}
	got := EstimateBPM(tr, 4000, 200, 1)
	if got != 75 {
		t.Fatalf("EstimateBPM = %f, want 75", got)
	}
	// With a 4-spike minimum the 3-spike bursts are rejected.
	if got := EstimateBPM(tr, 4000, 200, 4); got != 0 {
		t.Fatalf("EstimateBPM with minBurst=4 = %f, want 0", got)
	}
	if EstimateBPM(nil, 1000, 200, 1) != 0 {
		t.Fatal("empty train must estimate 0")
	}
}

func TestMergeAll(t *testing.T) {
	merged := MergeAll([]spike.Train{{5, 9}, {1}, {7}})
	want := spike.Train{1, 5, 7, 9}
	if len(merged) != 4 {
		t.Fatalf("merged = %v", merged)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merged = %v, want %v", merged, want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range RealisticNames() {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			t.Fatalf("nil builder for %s", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must fail")
	}
}

func TestAppsDeterministic(t *testing.T) {
	a1, err := HelloWorld(Config{Seed: 11, DurationMs: 300})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := HelloWorld(Config{Seed: 11, DurationMs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Graph.TotalSpikes() != a2.Graph.TotalSpikes() {
		t.Fatal("same seed must reproduce identical apps")
	}
	a3, err := HelloWorld(Config{Seed: 12, DurationMs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Graph.TotalSpikes() == a3.Graph.TotalSpikes() {
		t.Log("warning: different seeds coincidentally equal (not fatal)")
	}
}

func TestCanonicalSpec(t *testing.T) {
	cases := []struct{ in, want string }{
		{"HW", "HW"},
		{"hello_world", "HW"},
		{"heartbeat_estimation", "HE"},
		{"synth", "synth"},
		{"synth:", "synth"}, // empty tail builds exactly like the bare name
		{"synth:width=100,layers=3", "synth:layers=3,width=100"},
		{"synth:layers=3,width=100", "synth:layers=3,width=100"},
		// The gen: families register from internal/genapp's init, which
		// this test binary does not link; the root package pins their
		// canonicalization (TestJobSpecAppCanonicalization).
		{"no-such-app", "no-such-app"},
		{"synth:not-a-param", "synth:not-a-param"},
	}
	for _, c := range cases {
		if got := CanonicalSpec(c.in); got != c.want {
			t.Errorf("CanonicalSpec(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
