// Package metrics computes the SNN-specific interconnect metrics the paper
// introduces (§II): spike disorder count — a measure of information loss
// caused by interconnect arbitration reordering spikes — and inter-spike
// interval (ISI) distortion — a measure of information distortion in
// temporally coded SNNs caused by congestion delaying some spike packets
// more than others. It also summarizes the conventional metrics (latency,
// throughput) from the same delivery trace.
package metrics

import (
	"sort"

	"repro/internal/noc"
)

// Report aggregates all interconnect metrics of one simulation, matching
// the rows of the paper's Table II.
type Report struct {
	// Delivered is the number of packet arrivals analyzed.
	Delivered int64
	// DisorderCount is the number of spikes that arrived at a crossbar
	// after a spike that was created later than them (paper §II: spikes
	// from B received at C before the spike from A).
	DisorderCount int64
	// DisorderFrac is DisorderCount as a fraction of delivered spikes
	// (paper §III: "the spike disorder count as the fraction of total
	// spikes arriving out of order at the neurons").
	DisorderFrac float64
	// ISIAvgCycles is the average absolute difference between source and
	// destination inter-spike intervals, in interconnect cycles
	// (Table II row "ISI Distortion").
	ISIAvgCycles float64
	// ISIMaxCycles is the maximum ISI difference (paper §III: "the
	// maximum difference between the inter-spike interval of source and
	// destination neurons").
	ISIMaxCycles int64
	// ISICount is the number of inter-spike intervals compared.
	ISICount int64
	// AvgLatencyCycles is the mean spike latency on the interconnect.
	AvgLatencyCycles float64
	// MaxLatencyCycles is the worst-case spike latency (Table II row
	// "Latency").
	MaxLatencyCycles int64
	// ThroughputPerMs is delivered AER packets per millisecond
	// (Table II row "Throughput").
	ThroughputPerMs float64
}

// Analyze computes the full metric report from a delivery trace.
// durationMs is the wall-clock length of the SNN run that produced the
// traffic; it only affects ThroughputPerMs. The trace may be in any order;
// deliveries are re-sorted by arrival cycle.
func Analyze(deliveries []noc.Delivery, durationMs int64) Report {
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
	r.DisorderCount = disorderCount(sorted)
	r.DisorderFrac = float64(r.DisorderCount) / float64(len(sorted))

	// ISI distortion: per (source neuron, destination crossbar) stream.
	r.ISIAvgCycles, r.ISIMaxCycles, r.ISICount = isiDistortion(sorted)

	if durationMs > 0 {
		r.ThroughputPerMs = float64(len(sorted)) / float64(durationMs)
	}
	return r
}

// disorderCount counts spikes arriving out of creation order at each
// destination. The input must be sorted by arrival cycle.
func disorderCount(sorted []noc.Delivery) int64 {
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

// stream identifies a source-neuron-to-destination-crossbar spike stream.
type stream struct {
	neuron int32
	dst    int
}

// isiDistortion compares source and destination inter-spike intervals per
// stream. The input must be sorted by arrival cycle so destination ISIs
// reflect arrival order.
func isiDistortion(sorted []noc.Delivery) (avg float64, max int64, n int64) {
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

// Accumulator computes the same Report as Analyze from a delivery stream,
// without retaining the trace: it keeps only per-destination high-water
// marks (disorder) and the previous delivery per spike stream (ISI), so
// memory is O(streams) instead of O(deliveries). Feed it deliveries in
// arrival order — exactly the order the simulator emits them (e.g. via
// noc.Simulator.SetDeliverySink) — and the resulting Report is
// bit-identical to Analyze over the accumulated trace: Analyze's stable
// sort of an already arrival-ordered trace is the identity, and every
// aggregate is formed from the same integer totals in the same order.
type Accumulator struct {
	delivered  int64
	totalLat   int64
	maxLat     int64
	disorder   int64
	maxCreated map[int]int64
	last       map[stream]streamMark
	isiTotal   int64
	isiMax     int64
	isiCount   int64
}

// streamMark is the per-stream state the ISI update needs from the
// previous delivery — just the two cycle stamps, not the whole Delivery.
type streamMark struct {
	created, arrive int64
}

// NewAccumulator returns an empty streaming analyzer.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		maxCreated: map[int]int64{},
		last:       map[stream]streamMark{},
	}
}

// Add folds one delivery into the running metrics. Deliveries must be
// added in arrival order.
func (a *Accumulator) Add(d noc.Delivery) {
	a.delivered++
	lat := d.Latency()
	a.totalLat += lat
	if lat > a.maxLat {
		a.maxLat = lat
	}

	// Disorder, replicating disorderCount's update rule per destination.
	prev, ok := a.maxCreated[d.Dst]
	if ok && d.CreatedCycle < prev {
		a.disorder++
	}
	if !ok || d.CreatedCycle > prev {
		a.maxCreated[d.Dst] = d.CreatedCycle
	}

	// ISI distortion against the stream's previous delivery.
	k := stream{d.SrcNeuron, d.Dst}
	if last, ok := a.last[k]; ok {
		srcISI := d.CreatedCycle - last.created
		dstISI := d.ArriveCycle - last.arrive
		dist := srcISI - dstISI
		if dist < 0 {
			dist = -dist
		}
		a.isiTotal += dist
		if dist > a.isiMax {
			a.isiMax = dist
		}
		a.isiCount++
	}
	a.last[k] = streamMark{d.CreatedCycle, d.ArriveCycle}
}

// Report finalizes the streamed metrics; durationMs only affects
// ThroughputPerMs, as in Analyze.
func (a *Accumulator) Report(durationMs int64) Report {
	var r Report
	r.Delivered = a.delivered
	if a.delivered == 0 {
		return r
	}
	r.AvgLatencyCycles = float64(a.totalLat) / float64(a.delivered)
	r.MaxLatencyCycles = a.maxLat
	r.DisorderCount = a.disorder
	r.DisorderFrac = float64(a.disorder) / float64(a.delivered)
	r.ISIMaxCycles = a.isiMax
	r.ISICount = a.isiCount
	if a.isiCount > 0 {
		r.ISIAvgCycles = float64(a.isiTotal) / float64(a.isiCount)
	}
	if durationMs > 0 {
		r.ThroughputPerMs = float64(a.delivered) / float64(durationMs)
	}
	return r
}
