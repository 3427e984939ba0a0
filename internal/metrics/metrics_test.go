package metrics

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/noc"
)

func d(neuron int32, src, dst int, created, arrive int64) noc.Delivery {
	return noc.Delivery{
		SrcNeuron: neuron, Src: src, Dst: dst,
		CreatedCycle: created, ArriveCycle: arrive,
	}
}

// analyze is the Accumulator's contract on a whole trace: a stable sort
// by arrival cycle, then one fold through a reset accumulator sized for
// the trace's destinations.
func analyze(deliveries []noc.Delivery, durationMs int64) Report {
	sorted := slices.Clone(deliveries)
	slices.SortStableFunc(sorted, func(x, y noc.Delivery) int { return cmp.Compare(x.ArriveCycle, y.ArriveCycle) })
	endpoints := 0
	for _, d := range sorted {
		endpoints = max(endpoints, d.Dst+1)
	}
	var acc Accumulator
	acc.Reset(endpoints)
	for _, d := range sorted {
		acc.Add(d)
	}
	return acc.Report(durationMs)
}

func TestAnalyzeEmpty(t *testing.T) {
	r := analyze(nil, 100)
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
	r := analyze(ds, 100)
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
	r := analyze(ds, 100)
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
	r := analyze(ds, 100)
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
	r := analyze(ds, 100)
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
	r := analyze(ds, 100)
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
	r := analyze(ds, 100)
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
	r := analyze(ds, 4)
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
	r := analyze(ds, 100)
	if r.ISIAvgCycles != 4 || r.ISIMaxCycles != 5 {
		t.Fatalf("unsorted input mishandled: %+v", r)
	}
}

// TestAccumulatorMatchesAnalyze pins the streaming accumulator to the
// frozen trace analyzer bit for bit on random arrival-ordered traces,
// including arrival-cycle ties (where the oracle's stable sort preserves
// feed order) and repeated spike streams (exercising the ISI path). One
// accumulator serves every trial through Reset, so state that Reset
// forgets shows up as a mismatch in a later trial.
func TestAccumulatorMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var acc Accumulator
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

		acc.Reset(5)
		for _, d := range trace {
			acc.Add(d)
		}
		got := acc.Report(durationMs)
		want := frozenAnalyze(trace, durationMs)
		if got != want {
			t.Fatalf("trial %d (%d deliveries): streaming report diverges:\n got %+v\nwant %+v", trial, n, got, want)
		}
	}
}

// FuzzAccumulator checks the fold against the frozen trace analyzer on
// arbitrary arrival-ordered traces. Each 4-byte record is one delivery:
// source neuron, destination (any of the endpoints, the last included),
// arrival advance (0 is a tie with the previous arrival) and a signed
// creation offset, so created cycles reach below zero. The first byte
// picks the endpoint count. Every input is folded twice through one
// accumulator to catch state that Reset leaves behind.
func FuzzAccumulator(f *testing.F) {
	f.Add([]byte{4, 1, 3, 5, 200, 1, 3, 0, 250, 2, 0, 7, 9})
	f.Add([]byte{1, 0, 0, 0, 128, 0, 0, 0, 127, 0, 0, 0, 0})
	f.Add([]byte{7, 9, 6, 0, 0, 9, 6, 0, 255, 9, 6, 1, 1, 3, 2, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		endpoints := int(data[0]%8) + 1
		data = data[1:]
		var trace []noc.Delivery
		arrive := int64(-20)
		for ; len(data) >= 4; data = data[4:] {
			arrive += int64(data[2] % 16)
			created := arrive - int64(int8(data[3]))*3
			trace = append(trace, noc.Delivery{
				SrcNeuron:    int32(data[0] % 4),
				Dst:          int(data[1]) % endpoints,
				CreatedMs:    created / 10,
				CreatedCycle: created,
				ArriveCycle:  arrive,
			})
		}
		durationMs := int64(len(trace)%3) * 50
		want := frozenAnalyze(trace, durationMs)
		var acc Accumulator
		for pass := 0; pass < 2; pass++ {
			acc.Reset(endpoints)
			for _, d := range trace {
				acc.Add(d)
			}
			if got := acc.Report(durationMs); got != want {
				t.Fatalf("pass %d, %d endpoints, %d deliveries: fold diverges:\n got %+v\nwant %+v", pass, endpoints, len(trace), got, want)
			}
		}
	})
}

// TestAccumulatorWarmResetAllocs is the analysis allocation contract: once
// an accumulator has seen a run's streams, Reset plus a fold of the same
// trace allocates nothing — the destination marks and the stream table
// keep their storage.
func TestAccumulatorWarmResetAllocs(t *testing.T) {
	var trace []noc.Delivery
	for i := 0; i < 2000; i++ {
		arrive := int64(i * 3)
		trace = append(trace, d(int32(i%97), 0, i%13, arrive-int64(i%11), arrive))
	}
	var acc Accumulator
	fold := func() {
		acc.Reset(13)
		for _, d := range trace {
			acc.Add(d)
		}
		_ = acc.Report(100)
	}
	fold()
	if allocs := testing.AllocsPerRun(10, fold); allocs != 0 {
		t.Fatalf("warm Reset + fold allocates %.0f objects per run, want 0", allocs)
	}
}

// frozenAnalyze is the trace analyzer the pipeline used before every run
// was analyzed by the Accumulator's fold, kept verbatim as its oracle: it
// copies and stably sorts the trace by arrival, then computes disorder
// and ISI distortion over per-destination and per-stream maps.
func frozenAnalyze(deliveries []noc.Delivery, durationMs int64) Report {
	var r Report
	r.Delivered = int64(len(deliveries))
	if len(deliveries) == 0 {
		return r
	}

	sorted := make([]noc.Delivery, len(deliveries))
	copy(sorted, deliveries)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].ArriveCycle < sorted[j].ArriveCycle
	})

	// Latency.
	var totalLat int64
	for _, d := range sorted {
		lat := d.Latency()
		totalLat += lat
		if lat > r.MaxLatencyCycles {
			r.MaxLatencyCycles = lat
		}
	}
	r.AvgLatencyCycles = float64(totalLat) / float64(len(sorted))

	// Disorder: per destination crossbar, count arrivals whose creation
	// time precedes the maximum creation time already seen.
	r.DisorderCount = frozenDisorderCount(sorted)
	r.DisorderFrac = float64(r.DisorderCount) / float64(len(sorted))

	// ISI distortion: per (source neuron, destination crossbar) stream.
	r.ISIAvgCycles, r.ISIMaxCycles, r.ISICount = frozenISIDistortion(sorted)

	if durationMs > 0 {
		r.ThroughputPerMs = float64(len(sorted)) / float64(durationMs)
	}
	return r
}

// frozenDisorderCount counts spikes arriving out of creation order at
// each destination. The input must be sorted by arrival cycle.
func frozenDisorderCount(sorted []noc.Delivery) int64 {
	maxCreated := map[int]int64{}
	var count int64
	for _, d := range sorted {
		if prev, ok := maxCreated[d.Dst]; ok && d.CreatedCycle < prev {
			count++
		}
		if prev, ok := maxCreated[d.Dst]; !ok || d.CreatedCycle > prev {
			maxCreated[d.Dst] = d.CreatedCycle
		}
	}
	return count
}

// frozenISIDistortion compares source and destination inter-spike
// intervals per stream. The input must be sorted by arrival cycle so
// destination ISIs reflect arrival order.
func frozenISIDistortion(sorted []noc.Delivery) (avg float64, max int64, n int64) {
	byStream := map[stream][]noc.Delivery{}
	for _, d := range sorted {
		k := stream{d.SrcNeuron, d.Dst}
		byStream[k] = append(byStream[k], d)
	}
	var total int64
	for _, ds := range byStream {
		for i := 1; i < len(ds); i++ {
			srcISI := ds[i].CreatedCycle - ds[i-1].CreatedCycle
			dstISI := ds[i].ArriveCycle - ds[i-1].ArriveCycle
			dist := srcISI - dstISI
			if dist < 0 {
				dist = -dist
			}
			total += dist
			if dist > max {
				max = dist
			}
			n++
		}
	}
	if n > 0 {
		avg = float64(total) / float64(n)
	}
	return avg, max, n
}
