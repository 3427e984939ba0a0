package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/spike"
)

// This file freezes the list-based synapse layout the graph kept before
// its CSR became the only stored form: a graph was a synapse list, its
// CSR a stable sort of that list by pre, its in-adjacency the list
// grouped by post in list order, and a WorkloadDelta edited the list.
// The tests hold the CSR-only code to these builds.

// referenceCSR is the frozen out-adjacency build: a copy of the synapse
// list, stably sorted by pre, with the bucket offsets counted from it.
func referenceCSR(n int, list []Synapse) ([]int32, []Synapse) {
	syn := make([]Synapse, len(list))
	copy(syn, list)
	sort.SliceStable(syn, func(a, b int) bool { return syn[a].Pre < syn[b].Pre })
	start := make([]int32, n+1)
	for _, s := range syn {
		start[s.Pre+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	return start, syn
}

// referenceInAdj is the frozen in-adjacency loop: offsets counted by
// post, then pres placed through a separate cursor in list order.
func referenceInAdj(n int, list []Synapse) ([]int32, []int32) {
	start := make([]int32, n+1)
	for _, s := range list {
		start[s.Post+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	pre := make([]int32, len(list))
	cursor := make([]int32, n)
	copy(cursor, start[:n])
	for _, s := range list {
		k := cursor[s.Post]
		cursor[s.Post]++
		pre[k] = s.Pre
	}
	return start, pre
}

// referenceValidate is the frozen list check of the graph's Validate:
// endpoints in range and no negative delay.
func referenceValidate(n int, list []Synapse) error {
	for i, s := range list {
		if s.Pre < 0 || int(s.Pre) >= n {
			return fmt.Errorf("graph: synapse %d pre %d out of range", i, s.Pre)
		}
		if s.Post < 0 || int(s.Post) >= n {
			return fmt.Errorf("graph: synapse %d post %d out of range", i, s.Post)
		}
		if s.DelayMs < 0 {
			return fmt.Errorf("graph: synapse %d negative delay", i)
		}
	}
	return nil
}

// referenceApply is the frozen list-based WorkloadDelta.Apply on a graph
// of n neurons holding list and spikes: removals drop the first remaining
// (pre, post) match in list order, additions are appended, rate shifts
// resample. It returns the perturbed list and trains. The list build sized
// its output as len+adds−removes and so panicked (negative capacity) when
// removals outnumbered both; that panic is returned as an error, which is
// what the CSR Apply reports for such unmatched removals.
func referenceApply(d WorkloadDelta, n int, list []Synapse, spikes []spike.Train) (out []Synapse, outSpikes []spike.Train, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, outSpikes, err = nil, nil, fmt.Errorf("frozen Apply panicked: %v", r)
		}
	}()
	for i, s := range d.AddSynapses {
		if s.Pre < 0 || int(s.Pre) >= n || s.Post < 0 || int(s.Post) >= n {
			return nil, nil, fmt.Errorf("graph: delta add %d: synapse %d→%d out of range [0,%d)", i, s.Pre, s.Post, n)
		}
		if s.DelayMs < 0 {
			return nil, nil, fmt.Errorf("graph: delta add %d: negative delay", i)
		}
	}
	drop := make(map[[2]int32]int, len(d.RemoveSynapses))
	for i, s := range d.RemoveSynapses {
		if s.Pre < 0 || int(s.Pre) >= n || s.Post < 0 || int(s.Post) >= n {
			return nil, nil, fmt.Errorf("graph: delta remove %d: synapse %d→%d out of range [0,%d)", i, s.Pre, s.Post, n)
		}
		drop[[2]int32{s.Pre, s.Post}]++
	}
	out = make([]Synapse, 0, len(list)+len(d.AddSynapses)-len(d.RemoveSynapses))
	for _, s := range list {
		if k := [2]int32{s.Pre, s.Post}; drop[k] > 0 {
			drop[k]--
			continue
		}
		out = append(out, s)
	}
	for k, left := range drop {
		if left > 0 {
			return nil, nil, fmt.Errorf("graph: delta removes %d more %d→%d synapses than exist", left, k[0], k[1])
		}
	}
	out = append(out, d.AddSynapses...)

	shift := make(map[int]float64, len(d.RateShifts))
	for i, rs := range d.RateShifts {
		if rs.Neuron < 0 || rs.Neuron >= n {
			return nil, nil, fmt.Errorf("graph: delta rate shift %d: neuron %d out of range [0,%d)", i, rs.Neuron, n)
		}
		if rs.Factor < 0 {
			return nil, nil, fmt.Errorf("graph: delta rate shift %d: negative factor %g", i, rs.Factor)
		}
		if _, dup := shift[rs.Neuron]; dup {
			return nil, nil, fmt.Errorf("graph: delta rate shift %d: duplicate neuron %d", i, rs.Neuron)
		}
		shift[rs.Neuron] = rs.Factor
	}
	outSpikes = make([]spike.Train, n)
	copy(outSpikes, spikes)
	for nrn, factor := range shift {
		outSpikes[nrn] = resampleTrain(spikes[nrn], factor)
	}
	return out, outSpikes, referenceValidate(n, out)
}

// randomSynapses draws m synapses over n neurons in arbitrary order, with
// self-loops and parallel synapses.
func randomSynapses(rng *rand.Rand, n, m int) []Synapse {
	syn := make([]Synapse, m)
	for i := range syn {
		syn[i] = Synapse{
			Pre:     int32(rng.Intn(n)),
			Post:    int32(rng.Intn(n)),
			Weight:  rng.Float64(),
			DelayMs: int32(rng.Intn(4)),
		}
	}
	return syn
}

// fuzzDelta decodes a delta over n neurons from raw bytes, three bytes an
// entry: the kind, then two operands. Endpoints and neurons range a little
// past n and delays and factors go negative, so every error path is
// reachable; removals mostly pick synapses of list so matches are common.
func fuzzDelta(raw []byte, n int, list []Synapse) WorkloadDelta {
	var d WorkloadDelta
	endpoint := func(b byte) int32 { return int32(b)%int32(n+2) - 1 }
	for ; len(raw) >= 3; raw = raw[3:] {
		kind, a, b := raw[0], raw[1], raw[2]
		switch kind % 4 {
		case 0:
			d.AddSynapses = append(d.AddSynapses, Synapse{Pre: endpoint(a), Post: endpoint(b), DelayMs: int32(kind/4%5) - 1})
		case 1:
			if len(list) > 0 && kind/4%4 != 0 {
				s := list[int(a)%len(list)]
				d.RemoveSynapses = append(d.RemoveSynapses, Synapse{Pre: s.Pre, Post: s.Post})
				continue
			}
			d.RemoveSynapses = append(d.RemoveSynapses, Synapse{Pre: endpoint(a), Post: endpoint(b)})
		default:
			d.RateShifts = append(d.RateShifts, RateShift{Neuron: int(endpoint(a)), Factor: float64(int(b)-16) / 32})
		}
	}
	return d
}

// checkDeltaApply holds the CSR Apply to the frozen list-based one on the
// graph and delta the inputs decode to: both reject the delta, or the CSR
// Apply yields exactly the CSR of the frozen result list and the same
// spike trains. Either way the base graph is left untouched. It reports
// whether the delta applied with both additions and removals.
func checkDeltaApply(t *testing.T, seed int64, nRaw, mRaw uint8, raw []byte) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(nRaw)%24
	list := randomSynapses(rng, n, int(mRaw)%80)
	spikes := make([]spike.Train, n)
	for i := range spikes {
		for ms := int64(0); ms < 50; ms += 1 + rng.Int63n(20) {
			spikes[i] = append(spikes[i], ms)
		}
	}
	d := fuzzDelta(raw, n, list)
	g := &SpikeGraph{Neurons: n, CSR: mustCSR(n, list), Spikes: spikes}
	baseStart, basePost := slices.Clone(g.CSR.Start), slices.Clone(g.CSR.Post)

	got, err := d.Apply(g)
	wantList, wantSpikes, wantErr := referenceApply(d, n, list, spikes)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("delta %+v: error %v, frozen Apply %v", d, err, wantErr)
	}
	if !slices.Equal(g.CSR.Start, baseStart) || !slices.Equal(g.CSR.Post, basePost) {
		t.Fatal("Apply mutated the base graph")
	}
	if err != nil {
		return false
	}
	start, sorted := referenceCSR(n, wantList)
	post := make([]int32, len(sorted))
	for k, s := range sorted {
		post[k] = s.Post
	}
	if !slices.Equal(got.CSR.Start, start) || !slices.Equal(got.CSR.Post, post) {
		t.Fatalf("delta %+v: CSR %v/%v, frozen %v/%v", d, got.CSR.Start, got.CSR.Post, start, post)
	}
	if !reflect.DeepEqual(got.Spikes, wantSpikes) {
		t.Fatalf("delta %+v: spike trains differ from the frozen Apply", d)
	}
	return len(d.AddSynapses) > 0 && len(d.RemoveSynapses) > 0
}

// TestWorkloadDeltaMatchesFrozen runs checkDeltaApply on 2,000 random
// graphs and deltas of up to six entries.
func TestWorkloadDeltaMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mixed := 0
	for i := 0; i < 2000; i++ {
		raw := make([]byte, 3*rng.Intn(7))
		rng.Read(raw)
		if checkDeltaApply(t, rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), raw) {
			mixed++
		}
	}
	if mixed < 100 {
		t.Fatalf("only %d deltas applied with both additions and removals", mixed)
	}
}

// FuzzWorkloadDeltaApply is checkDeltaApply under the fuzzer. The seeds
// cover additions into occupied out-lists beside removals and rate
// shifts, the old list build's negative-capacity panic (a removal from an
// empty graph), and each rejection.
func FuzzWorkloadDeltaApply(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(20), []byte{4, 1, 2, 5, 3, 0, 4, 3, 1, 8, 5, 5, 2, 4, 40})
	f.Add(int64(2), uint8(1), uint8(0), []byte{1, 1, 1})
	f.Add(int64(3), uint8(12), uint8(60), []byte{5, 7, 7, 5, 7, 7, 5, 7, 7, 5, 7, 7, 0, 3, 3})
	f.Add(int64(4), uint8(5), uint8(9), []byte{2, 1, 48, 6, 2, 40, 2, 0, 48})
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, raw []byte) {
		checkDeltaApply(t, seed, nRaw, mRaw, raw)
	})
}
