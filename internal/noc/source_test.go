package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// expandSources is the packet form of a source list: every spike of every
// source, in source, spike, then repeat order — the order a caller
// injecting packets one by one would have used.
func expandSources(srcs []Source) []Packet {
	var pkts []Packet
	for _, s := range srcs {
		for _, t := range s.SpikesMs {
			for rep := 0; rep < s.Repeat; rep++ {
				pkts = append(pkts, Packet{SrcNeuron: s.SrcNeuron, Src: s.Src, Dst: s.Dst, CreatedMs: t})
			}
		}
	}
	return pkts
}

// randomSources draws a source set that stresses the NI merge: several
// sources per endpoint with interleaved spike trains, duplicate spike
// times within a train, repeats of 1–4 and, when wide, multi-destination
// masks (singletons otherwise, the per-crossbar / per-synapse shape).
func randomSources(rng *rand.Rand, endpoints int, wide bool) []Source {
	srcs := make([]Source, 10+rng.Intn(30))
	for i := range srcs {
		src := rng.Intn(endpoints)
		dst := NewMask(endpoints)
		for dst.Empty() {
			for d := 0; d < endpoints; d++ {
				if d != src && (wide && rng.Intn(3) == 0 || !wide && rng.Intn(endpoints) == 0) {
					dst.Set(d)
					if !wide {
						break
					}
				}
			}
		}
		spikes := make([]int64, rng.Intn(6))
		t := int64(rng.Intn(4))
		for k := range spikes {
			t += int64(rng.Intn(3)) // 0 repeats the previous spike time
			spikes[k] = t
		}
		srcs[i] = Source{SrcNeuron: int32(i / 2), Src: src, Dst: dst, SpikesMs: spikes, Repeat: 1 + rng.Intn(4)}
	}
	return srcs
}

// replaySources adds srcs to a fresh simulator and runs it.
func replaySources(t *testing.T, cfg Config, srcs []Source) *Result {
	t.Helper()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range srcs {
		if err := sim.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAddSourceMatchesReference pins the streaming NI merge to the seed
// loop fed the same traffic as packets in the old injection order: stats
// and the delivery trace must be bit-identical on both topologies, with
// multicast on and off, for wide and singleton destination masks.
func TestAddSourceMatchesReference(t *testing.T) {
	for _, kind := range []Kind{Mesh, Tree} {
		for _, multicast := range []bool{true, false} {
			for _, wide := range []bool{true, false} {
				for seed := int64(1); seed <= 6; seed++ {
					name := fmt.Sprintf("%v/mc=%v/wide=%v/seed=%d", kind, multicast, wide, seed)
					t.Run(name, func(t *testing.T) {
						const endpoints = 12
						cfg := DefaultConfig(kind, endpoints)
						cfg.Multicast = multicast
						cfg.BufferDepth = 1 + int(seed%3)
						srcs := randomSources(rand.New(rand.NewSource(seed)), endpoints, wide)
						want := referenceRun(t, cfg, expandSources(srcs))
						if want.Stats.Delivered == 0 {
							t.Fatal("degenerate workload: nothing delivered")
						}
						requireIdentical(t, replaySources(t, cfg, srcs), want, "AddSource replay")
					})
				}
			}
		}
	}
}

// TestAddSourceMixesWithInject interleaves AddSource and Inject on one
// simulator: both feed the same merge, in call order.
func TestAddSourceMixesWithInject(t *testing.T) {
	const endpoints = 9
	cfg := DefaultConfig(Mesh, endpoints)
	srcs := randomSources(rand.New(rand.NewSource(42)), endpoints, true)
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range srcs {
		if i%2 == 0 {
			if err := sim.AddSource(s); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for _, p := range expandSources([]Source{s}) {
			if err := sim.Inject(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, referenceRun(t, cfg, expandSources(srcs)), "mixed AddSource/Inject replay")
}

// TestAddSourceValidation rejects every malformed source with an error
// naming the defect, and accepts nothing after Run.
func TestAddSourceValidation(t *testing.T) {
	const endpoints = 8
	ok := Source{SrcNeuron: 1, Src: 0, Dst: mask(endpoints, 3), SpikesMs: []int64{1, 1, 4}, Repeat: 2}
	with := func(edit func(*Source)) Source {
		s := ok
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		src  Source
		want string
	}{
		{"unsorted times", with(func(s *Source) { s.SpikesMs = []int64{2, 5, 3} }), "not ascending"},
		{"negative time", with(func(s *Source) { s.SpikesMs = []int64{-1, 2} }), "negative creation time"},
		{"repeat zero", with(func(s *Source) { s.Repeat = 0 }), "repeat 0 < 1"},
		{"repeat negative", with(func(s *Source) { s.Repeat = -2 }), "repeat -2 < 1"},
		{"empty mask", with(func(s *Source) { s.Dst = NewMask(endpoints) }), "empty destination mask"},
		{"destination includes source", with(func(s *Source) { s.Dst = mask(endpoints, 0, 3) }), "invalid destination 0"},
		{"destination out of range", with(func(s *Source) { s.Dst = mask(70, 3, 65) }), "invalid destination 65"},
		{"source out of range", with(func(s *Source) { s.Src = endpoints }), "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := NewSimulator(DefaultConfig(Tree, endpoints))
			if err != nil {
				t.Fatal(err)
			}
			err = sim.AddSource(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("AddSource(%+v) = %v, want error containing %q", c.src, err, c.want)
			}
			// A rejected source leaves no trace in the replay.
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Injected != 0 {
				t.Fatalf("rejected source injected %d packets", res.Stats.Injected)
			}
		})
	}
	t.Run("add after run", func(t *testing.T) {
		sim, err := NewSimulator(DefaultConfig(Tree, endpoints))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.AddSource(ok); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sim.AddSource(ok); err == nil || !strings.Contains(err.Error(), "after Run") {
			t.Fatalf("AddSource after Run = %v, want an error", err)
		}
		sim.Reset()
		if err := sim.AddSource(ok); err != nil {
			t.Fatalf("AddSource after Reset: %v", err)
		}
	})
}

// FuzzAddSource decodes byte-driven configurations and source sets. The
// simulator must never panic; every source must be rejected exactly when
// it is malformed, and the accepted ones must replay bit-identically to
// the seed loop fed their packet expansion.
func FuzzAddSource(f *testing.F) {
	f.Add([]byte{5, 1, 0, 0x0c, 2, 3, 1, 1, 4})
	f.Add([]byte{16, 0, 3, 0x81, 1, 4, 0, 0, 0, 0, 7, 0xff, 4, 2, 9, 2})
	f.Add([]byte{2, 3, 1, 0x01, 0, 2, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// Header: endpoint count (2–17), then topology and multicast bits.
		endpoints := 2 + next()%16
		flags := next()
		kind := Mesh
		if flags&1 != 0 {
			kind = Tree
		}
		cfg := DefaultConfig(kind, endpoints)
		cfg.Multicast = flags&2 != 0
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Each source: src, destination bits, repeat (0–4), spike count
		// (0–4), then spike times as signed bytes (negative and
		// descending times are legal inputs, to be rejected).
		var accepted []Source
		for n := 0; len(data) > 0 && n < 16; n++ {
			src := Source{SrcNeuron: int32(n), Src: next() % (endpoints + 1), Dst: NewMask(endpoints)}
			for bitsLeft := next(); bitsLeft != 0; bitsLeft >>= 1 {
				if bitsLeft&1 != 0 {
					src.Dst.Set(next() % endpoints)
				}
			}
			src.Repeat = next() % 5
			src.SpikesMs = make([]int64, next()%5)
			for k := range src.SpikesMs {
				src.SpikesMs[k] = int64(int8(next())) % 16
			}
			valid := src.Src < endpoints && !src.Dst.Empty() && !src.Dst.Test(src.Src) && src.Repeat >= 1
			for k, ms := range src.SpikesMs {
				valid = valid && ms >= 0 && (k == 0 || ms >= src.SpikesMs[k-1])
			}
			err := sim.AddSource(src)
			if (err == nil) != valid {
				t.Fatalf("AddSource(%+v) = %v, valid = %v", src, err, valid)
			}
			if err == nil {
				accepted = append(accepted, src)
			}
		}
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, referenceRun(t, cfg, expandSources(accepted)), "fuzzed sources")
	})
}
