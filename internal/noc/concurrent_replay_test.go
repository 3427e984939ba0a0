package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// runTrace injects pkts into a fresh simulator and runs it to completion.
func runTrace(t *testing.T, cfg Config, pkts []Packet) *Result {
	t.Helper()
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := sim.Inject(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// replayForks replays pkts on n forks of one prototype at once, one
// goroutine each — the way sweep workers and fleet jobs share a warm
// simulator — and returns every fork's Result in fork order. prepare, when
// non-nil, runs on each fork before injection.
func replayForks(t *testing.T, cfg Config, pkts []Packet, n int, prepare func(i int, s *Simulator)) []*Result {
	t.Helper()
	proto, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sim := proto.Fork()
			if prepare != nil {
				prepare(i, sim)
			}
			for _, p := range pkts {
				if err := sim.Inject(p); err != nil {
					errs[i] = err
					return
				}
			}
			results[i], errs[i] = sim.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}
	return results
}

func requireIdentical(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: stats diverge from sequential:\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Deliveries, want.Deliveries) {
		for i := range want.Deliveries {
			if i < len(got.Deliveries) && got.Deliveries[i] != want.Deliveries[i] {
				t.Fatalf("%s: delivery %d diverges:\n got %+v\nwant %+v",
					label, i, got.Deliveries[i], want.Deliveries[i])
			}
		}
		t.Fatalf("%s: delivery count diverges: got %d, want %d",
			label, len(got.Deliveries), len(want.Deliveries))
	}
}

// TestParallelReplayMatchesSequential pins concurrent replays on forks of
// one simulator to a lone sequential replay: for every topology, multicast
// setting, back-pressure regime, packet size and AER packetization shape,
// and at every fork count, each fork's full Result — statistics including
// the float-accumulated energy, delivery trace and its exact order — must
// be bit-identical. Forks share the route and port-mask tables and the
// packets' destination masks, so any write to shared state shows up here
// as a diverging fork (and under -race as a report).
func TestParallelReplayMatchesSequential(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, kind := range []Kind{Mesh, Tree} {
		for _, endpoints := range []int{9, 70} {
			for _, multicast := range []bool{true, false} {
				for _, depth := range []int{1, 4} {
					cfg := DefaultConfig(kind, endpoints)
					cfg.Multicast = multicast
					cfg.BufferDepth = depth
					variants = append(variants, variant{
						fmt.Sprintf("%v/e%d/mc=%v/depth=%d", kind, endpoints, multicast, depth), cfg,
					})
				}
			}
		}
	}
	flitCfg := DefaultConfig(Mesh, 12)
	flitCfg.PacketFlits = 3
	variants = append(variants, variant{"mesh/e12/flits=3", flitCfg})
	arityCfg := DefaultConfig(Tree, 27)
	arityCfg.TreeArity = 3
	arityCfg.BufferDepth = 1
	variants = append(variants, variant{"tree/e27/arity=3/depth=1", arityCfg})
	// The star tree has 72 ports per router (wide-router arbitration
	// fallback).
	starCfg := DefaultConfig(Tree, 70)
	starCfg.TreeArity = 70
	variants = append(variants, variant{"tree/e70/arity=70(star)", starCfg})

	for _, v := range variants {
		for _, mode := range []string{"multicast", "percrossbar", "persynapse"} {
			t.Run(v.name+"/"+mode, func(t *testing.T) {
				pkts := aerTrace(v.cfg.Endpoints, mode, 1234)
				want := runTrace(t, v.cfg, pkts)
				if want.Stats.Delivered == 0 {
					t.Fatal("degenerate workload: nothing delivered")
				}
				for _, forks := range []int{2, 4} {
					for i, got := range replayForks(t, v.cfg, pkts, forks, nil) {
						requireIdentical(t, got, want, fmt.Sprintf("forks=%d/fork %d", forks, i))
					}
				}
			})
		}
	}
}

// TestParallelReplayDense cross-checks concurrent forks on heavier
// saturating random traffic, where back-pressure keeps buffers full and
// the arbitration paths are exercised constantly.
func TestParallelReplayDense(t *testing.T) {
	for _, kind := range []Kind{Mesh, Tree} {
		for _, seed := range []int64{3, 11} {
			const endpoints = 16
			cfg := DefaultConfig(kind, endpoints)
			cfg.BufferDepth = 2

			rng := rand.New(rand.NewSource(seed))
			var pkts []Packet
			for i := 0; i < 400; i++ {
				src := rng.Intn(endpoints)
				m := NewMask(endpoints)
				for d := 0; d < endpoints; d++ {
					if d != src && rng.Intn(3) == 0 {
						m.Set(d)
					}
				}
				if m.Empty() {
					m.Set((src + 1) % endpoints)
				}
				pkts = append(pkts, Packet{
					SrcNeuron: int32(i), Src: src, Dst: m,
					CreatedMs: int64(i % 3),
				})
			}
			want := runTrace(t, cfg, pkts)
			for i, got := range replayForks(t, cfg, pkts, 8, nil) {
				requireIdentical(t, got, want, fmt.Sprintf("%v/seed=%d/fork %d", kind, seed, i))
			}
		}
	}
}

// TestParallelReplayResetReuse pins the warm-session contract under
// concurrency: forks that replay, Reset and replay again side by side stay
// bit-identical to a sequential replay on every cycle, and a fork taken
// from a simulator that has already run starts from clean state.
func TestParallelReplayResetReuse(t *testing.T) {
	cfg := DefaultConfig(Mesh, 16)
	pkts := aerTrace(16, "multicast", 77)
	want := runTrace(t, cfg, pkts)

	proto, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const forks, cycles = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, forks)
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sim := proto.Fork()
			for cycle := 0; cycle < cycles; cycle++ {
				for _, p := range pkts {
					if err := sim.Inject(p); err != nil {
						errs <- err
						return
					}
				}
				got, err := sim.Run()
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(got.Deliveries, want.Deliveries) {
					errs <- fmt.Errorf("fork %d reset cycle %d diverged from sequential", g, cycle)
					return
				}
				sim.Reset()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	used := proto.Fork()
	for _, p := range pkts {
		if err := used.Inject(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := used.Run(); err != nil {
		t.Fatal(err)
	}
	fork := used.Fork()
	for _, p := range pkts {
		if err := fork.Inject(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fork.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "fork of a used simulator")
}

// TestParallelReplayEmpty pins the no-traffic edge: every concurrent fork
// must return the zero Result (nil Deliveries included).
func TestParallelReplayEmpty(t *testing.T) {
	for i, res := range replayForks(t, DefaultConfig(Mesh, 16), nil, 4, nil) {
		if res.Stats != (Stats{}) || res.Deliveries != nil {
			t.Fatalf("fork %d: empty run not zero: %+v", i, res)
		}
	}
}

// TestParallelReplayStreamingSink pins that each concurrent fork's delivery
// sink observes exactly the sequential arrival order, that sinks do not
// see each other's deliveries, and that no Result accumulates a trace
// while streaming.
func TestParallelReplayStreamingSink(t *testing.T) {
	cfg := DefaultConfig(Tree, 16)
	pkts := aerTrace(16, "percrossbar", 4321)
	want := runTrace(t, cfg, pkts)

	const forks = 4
	streamed := make([][]Delivery, forks)
	results := replayForks(t, cfg, pkts, forks, func(i int, s *Simulator) {
		s.SetDeliverySink(func(d Delivery) { streamed[i] = append(streamed[i], d) })
	})
	for i, got := range results {
		if len(got.Deliveries) != 0 {
			t.Fatalf("fork %d: streaming run accumulated %d deliveries on the Result", i, len(got.Deliveries))
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("fork %d: streaming stats diverge:\n got %+v\nwant %+v", i, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(streamed[i], want.Deliveries) {
			t.Fatalf("fork %d: streamed order diverges: got %d deliveries, want %d",
				i, len(streamed[i]), len(want.Deliveries))
		}
	}
}
