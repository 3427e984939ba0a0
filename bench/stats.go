package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, or 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(n=4) (exclusive), which the benchmark's
// noise rule is stated in. Fewer than two values give the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memMeter measures the process heap over the measured phase: the bytes
// allocated, and the peak of the live heap — the bytes the last garbage
// collection marked reachable — read from runtime/metrics every 100 ms.
type memMeter struct {
	stop       chan struct{}
	wg         sync.WaitGroup
	peak       float64
	allocStart uint64
}

const heapLive = "/gc/heap/live:bytes"

func startMemMeter() *memMeter {
	h := &memMeter{stop: make(chan struct{})}
	_, h.allocStart = allocCounters()
	sample := []metrics.Sample{{Name: heapLive}}
	read := func() {
		metrics.Read(sample)
		if v := float64(sample[0].Value.Uint64()); v > h.peak {
			h.peak = v
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// end stops the meter and returns the live-heap peak and the bytes
// allocated since the start, both in MB.
func (h *memMeter) end() (livePeakMB, allocMB float64) {
	close(h.stop)
	h.wg.Wait()
	_, alloc := allocCounters()
	return h.peak / 1e6, float64(alloc-h.allocStart) / 1e6
}

// allocCounters reads the process's cumulative heap allocations.
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
