package noc

import (
	"math/rand"
	"reflect"
	"testing"
)

// workloadPackets returns a deterministic pseudo-random unicast/multicast
// mix of n packets created within the first 9 ms.
func workloadPackets(endpoints, n int, seed int64) []Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]Packet, n)
	for i := range pkts {
		src := rng.Intn(endpoints)
		m := NewMask(endpoints)
		for d := 0; d < endpoints; d++ {
			if d != src && rng.Intn(4) == 0 {
				m.Set(d)
			}
		}
		if m.Empty() {
			d := (src + 1) % endpoints
			m.Set(d)
		}
		pkts[i] = Packet{SrcNeuron: int32(i), Src: src, Dst: m, CreatedMs: int64(rng.Intn(9))}
	}
	return pkts
}

// injectWorkload queues the 120-packet workloadPackets(endpoints, 120, seed).
func injectWorkload(t *testing.T, s *Simulator, endpoints int, seed int64) {
	t.Helper()
	for _, p := range workloadPackets(endpoints, 120, seed) {
		if err := s.Inject(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSimulatorResetReplaysIdentically reuses one simulator for repeated
// injection + Run cycles (the reusable-context contract of the pipeline:
// one simulator per worker serves placement queries and traffic replay)
// and requires bit-identical results against a fresh simulator.
func TestSimulatorResetReplaysIdentically(t *testing.T) {
	for _, kind := range []Kind{Mesh, Tree} {
		const endpoints = 9
		cfg := DefaultConfig(kind, endpoints)
		cfg.Multicast = kind == Mesh // exercise both expansion paths

		fresh, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		injectWorkload(t, fresh, endpoints, 7)
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}

		reused, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the simulator with distance queries and a full replay of a
		// different workload before resetting.
		if _, err := reused.HopDistance(0, endpoints-1); err != nil {
			t.Fatal(err)
		}
		injectWorkload(t, reused, endpoints, 99)
		if _, err := reused.Run(); err != nil {
			t.Fatal(err)
		}

		for cycle := 0; cycle < 3; cycle++ {
			reused.Reset()
			injectWorkload(t, reused, endpoints, 7)
			got, err := reused.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("%v cycle %d: stats diverge after Reset:\n got %+v\nwant %+v",
					kind, cycle, got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(got.Deliveries, want.Deliveries) {
				t.Fatalf("%v cycle %d: delivery trace diverges after Reset", kind, cycle)
			}
		}
	}
}

// TestSimulatorResetClearsState ensures a Reset simulator with no new
// injections reports an empty run.
func TestSimulatorResetClearsState(t *testing.T) {
	cfg := DefaultConfig(Tree, 8)
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	injectWorkload(t, s, 8, 3)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Injected == 0 || res.Stats.Delivered == 0 {
		t.Fatalf("workload produced no traffic: %+v", res.Stats)
	}
	// Callers may hold a Result across Reset: snapshot it deeply.
	heldStats := res.Stats
	heldDeliveries := append([]Delivery(nil), res.Deliveries...)
	s.Reset()
	empty, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if empty.Stats.Injected != 0 || empty.Stats.Delivered != 0 || len(empty.Deliveries) != 0 {
		t.Fatalf("state survived Reset: %+v", empty.Stats)
	}
	if res.Stats != heldStats || !reflect.DeepEqual(res.Deliveries, heldDeliveries) {
		t.Fatal("Reset+Run mutated a previously returned Result")
	}
}

// TestResetRunAllocsWarm pins the steady-state allocation count of a warm
// Reset+Inject+Run cycle. With the flight free-list, the sources, the NI
// heaps and Inject's spike-time buffer all surviving Reset, a repeat
// replay allocates only the trace buffer and the returned Result: the
// same handful at 120 packets as at 1,200, for both injection paths.
func TestResetRunAllocsWarm(t *testing.T) {
	for _, multicast := range []bool{true, false} {
		cfg := DefaultConfig(Mesh, 16)
		cfg.Multicast = multicast
		var allocs [2]float64
		for i, n := range []int{120, 1200} {
			s, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pkts := workloadPackets(16, n, 11)
			warm := func() {
				for _, p := range pkts {
					if err := s.Inject(p); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
				s.Reset()
			}
			warm() // populate the free-list and the retained buffers
			allocs[i] = testing.AllocsPerRun(5, warm)
		}
		if allocs[0] != allocs[1] {
			t.Errorf("multicast=%v: warm Reset+Run allocations grow with traffic: %.0f at 120 packets, %.0f at 1200",
				multicast, allocs[0], allocs[1])
		}
		// Measured: 2 (the trace buffer and the returned Result).
		if allocs[1] > 4 {
			t.Errorf("multicast=%v: warm Reset+Run allocates %.0f per run, want <= 4", multicast, allocs[1])
		}
	}
}
