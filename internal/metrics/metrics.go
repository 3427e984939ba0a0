// Package metrics computes the SNN-specific interconnect metrics the paper
// introduces (§II): spike disorder count — a measure of information loss
// caused by interconnect arbitration reordering spikes — and inter-spike
// interval (ISI) distortion — a measure of information distortion in
// temporally coded SNNs caused by congestion delaying some spike packets
// more than others. It also summarizes the conventional metrics (latency,
// throughput) from the same delivery trace.
package metrics

import (
	"math"
	"slices"

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

// Accumulator computes the metric report from a delivery stream without
// retaining the trace: it keeps only per-destination high-water marks
// (disorder) and the previous delivery per spike stream (ISI), so memory
// is O(streams) instead of O(deliveries). Feed it deliveries in arrival
// order — exactly the order the simulator emits them (e.g. via
// noc.Simulator.SetDeliverySink). It does not sort: disorder and ISI are
// read in the order Add sees, so a trace in any other order yields other
// numbers. The zero value is ready after Reset, and Reset keeps the
// stream table's storage, so one accumulator serves any number of runs.
type Accumulator struct {
	delivered int64
	totalLat  int64
	maxLat    int64
	disorder  int64
	// maxCreated[dst] is the latest creation cycle seen at destination
	// dst, math.MinInt64 before its first delivery.
	maxCreated []int64
	last       map[stream]streamMark
	isiTotal   int64
	isiMax     int64
	isiCount   int64
}

// stream identifies a source-neuron-to-destination-crossbar spike stream.
type stream struct {
	neuron int32
	dst    int
}

// streamMark is the per-stream state the ISI update needs from the
// previous delivery — just the two cycle stamps, not the whole Delivery.
type streamMark struct {
	created, arrive int64
}

// Reset empties the accumulator for a run whose deliveries address
// destinations 0..endpoints-1.
func (a *Accumulator) Reset(endpoints int) {
	maxCreated := slices.Grow(a.maxCreated[:0], endpoints)[:endpoints]
	for i := range maxCreated {
		maxCreated[i] = math.MinInt64
	}
	last := a.last
	if last == nil {
		last = map[stream]streamMark{}
	}
	clear(last)
	*a = Accumulator{maxCreated: maxCreated, last: last}
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

	// Disorder: an arrival created before the latest creation already
	// seen at its destination is out of order.
	if prev := a.maxCreated[d.Dst]; d.CreatedCycle < prev {
		a.disorder++
	} else {
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

// Report finalizes the streamed metrics. durationMs is the wall-clock
// length of the SNN run that produced the traffic; it only affects
// ThroughputPerMs.
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
