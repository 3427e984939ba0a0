package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/noc"
)

func d(neuron int32, src, dst int, created, arrive int64) noc.Delivery {
	return noc.Delivery{
		SrcNeuron: neuron, Src: src, Dst: dst,
		CreatedCycle: created, ArriveCycle: arrive,
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	r := Analyze(nil, 100)
	if r.Delivered != 0 || r.DisorderCount != 0 || r.ISIAvgCycles != 0 {
		t.Fatalf("empty report = %+v", r)
	}
}

func TestDisorderZeroWhenOrdered(t *testing.T) {
	ds := []noc.Delivery{
		d(1, 0, 2, 0, 5),
		d(2, 0, 2, 10, 15),
		d(3, 1, 2, 20, 24),
	}
	r := Analyze(ds, 100)
	if r.DisorderCount != 0 {
		t.Fatalf("ordered trace has disorder %d", r.DisorderCount)
	}
}

func TestDisorderDetectsPaperExample(t *testing.T) {
	// Paper §II example: A spikes before B but B's crossbar wins
	// arbitration, so B's spike arrives at C first. A's spike is out of
	// order.
	ds := []noc.Delivery{
		d(100 /* B */, 1, 2, 10, 12), // created later...
		d(200 /* A */, 0, 2, 5, 20),  // ...but A (created earlier) arrives after B
	}
	r := Analyze(ds, 100)
	if r.DisorderCount != 1 {
		t.Fatalf("disorder = %d, want 1", r.DisorderCount)
	}
	if math.Abs(r.DisorderFrac-0.5) > 1e-12 {
		t.Fatalf("disorder frac = %f, want 0.5", r.DisorderFrac)
	}
}

func TestDisorderPerDestinationIndependent(t *testing.T) {
	// Reordering across different destinations is not disorder.
	ds := []noc.Delivery{
		d(1, 0, 2, 10, 12),
		d(2, 0, 3, 5, 20),
	}
	r := Analyze(ds, 100)
	if r.DisorderCount != 0 {
		t.Fatalf("cross-destination disorder = %d, want 0", r.DisorderCount)
	}
}

func TestISIZeroWithConstantDelay(t *testing.T) {
	// Constant per-spike delay preserves ISIs exactly.
	ds := []noc.Delivery{
		d(1, 0, 2, 0, 7),
		d(1, 0, 2, 100, 107),
		d(1, 0, 2, 250, 257),
	}
	r := Analyze(ds, 100)
	if r.ISIAvgCycles != 0 || r.ISIMaxCycles != 0 {
		t.Fatalf("constant-delay ISI distortion = %+v", r)
	}
	if r.ISICount != 2 {
		t.Fatalf("ISI count = %d, want 2", r.ISICount)
	}
}

func TestISIDistortionMeasuresJitter(t *testing.T) {
	// Source ISIs: 100, 100. Arrival ISIs: 103, 95.
	ds := []noc.Delivery{
		d(1, 0, 2, 0, 10),
		d(1, 0, 2, 100, 113),
		d(1, 0, 2, 200, 208),
	}
	r := Analyze(ds, 100)
	// |100-103| = 3, |100-95| = 5 -> avg 4, max 5.
	if r.ISIAvgCycles != 4 {
		t.Fatalf("ISI avg = %f, want 4", r.ISIAvgCycles)
	}
	if r.ISIMaxCycles != 5 {
		t.Fatalf("ISI max = %d, want 5", r.ISIMaxCycles)
	}
}

func TestISIStreamsSeparated(t *testing.T) {
	// Two neurons interleaved at the same destination must not mix
	// streams.
	ds := []noc.Delivery{
		d(1, 0, 2, 0, 5),
		d(2, 0, 2, 50, 55),
		d(1, 0, 2, 100, 105),
		d(2, 0, 2, 150, 155),
	}
	r := Analyze(ds, 100)
	if r.ISIAvgCycles != 0 {
		t.Fatalf("separated streams should have 0 distortion, got %f", r.ISIAvgCycles)
	}
	if r.ISICount != 2 {
		t.Fatalf("ISI count = %d, want 2", r.ISICount)
	}
}

func TestLatencyAndThroughput(t *testing.T) {
	ds := []noc.Delivery{
		d(1, 0, 2, 0, 10),
		d(2, 0, 2, 0, 30),
	}
	r := Analyze(ds, 4)
	if r.AvgLatencyCycles != 20 {
		t.Fatalf("avg latency = %f, want 20", r.AvgLatencyCycles)
	}
	if r.MaxLatencyCycles != 30 {
		t.Fatalf("max latency = %d, want 30", r.MaxLatencyCycles)
	}
	if r.ThroughputPerMs != 0.5 {
		t.Fatalf("throughput = %f, want 0.5", r.ThroughputPerMs)
	}
}

func TestAnalyzeUnsortedInput(t *testing.T) {
	// The analyzer must sort by arrival before computing metrics.
	ds := []noc.Delivery{
		d(1, 0, 2, 100, 113),
		d(1, 0, 2, 0, 10),
		d(1, 0, 2, 200, 208),
	}
	r := Analyze(ds, 100)
	if r.ISIAvgCycles != 4 || r.ISIMaxCycles != 5 {
		t.Fatalf("unsorted input mishandled: %+v", r)
	}
}

// TestAccumulatorMatchesAnalyze pins the streaming accumulator to Analyze
// bit for bit on random arrival-ordered traces, including arrival-cycle
// ties (where Analyze's stable sort preserves feed order) and repeated
// spike streams (exercising the ISI path).
func TestAccumulatorMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(400)
		trace := make([]noc.Delivery, 0, n)
		arrive := int64(0)
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 { // ~1/3 of deliveries tie on arrival cycle
				arrive += int64(rng.Intn(50))
			}
			created := arrive - int64(rng.Intn(40)) - 1
			trace = append(trace, noc.Delivery{
				SrcNeuron:    int32(rng.Intn(8)), // few neurons -> long streams
				Src:          rng.Intn(4),
				Dst:          rng.Intn(5),
				CreatedMs:    created / 10,
				CreatedCycle: created,
				ArriveCycle:  arrive,
			})
		}
		durationMs := int64(rng.Intn(3) * 100)

		acc := NewAccumulator()
		for _, d := range trace {
			acc.Add(d)
		}
		got := acc.Report(durationMs)
		want := Analyze(trace, durationMs)
		if got != want {
			t.Fatalf("trial %d (%d deliveries): streaming report diverges:\n got %+v\nwant %+v", trial, n, got, want)
		}
	}
}
