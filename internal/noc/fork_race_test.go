package noc

import (
	"reflect"
	"sync"
	"testing"
)

// TestForkedSimulatorsRaceFree hammers the Fork contract under the race
// detector: many goroutines fork one prototype and replay the SAME packet
// workload — sharing the prototype's immutable topology, route table, and
// per-port geometry as well as the packets' destination masks — with
// warm Reset reuse. Every replica must reproduce the baseline result
// bit-for-bit; any write to shared immutable structure shows up as a race
// report, any aliasing bug as a diverging replica.
func TestForkedSimulatorsRaceFree(t *testing.T) {
	for _, kind := range []Kind{Mesh, Tree} {
		const endpoints = 16
		cfg := DefaultConfig(kind, endpoints)
		cfg.Multicast = true

		// Build the shared workload once: the Dst masks inside pkts are
		// referenced concurrently by every replica (the simulator copies
		// them into its own flights and never mutates injected ones).
		pkts := workloadPackets(endpoints, 120, 21)

		proto, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		baselineSim := proto.Fork()
		for _, p := range pkts {
			if err := baselineSim.Inject(p); err != nil {
				t.Fatal(err)
			}
		}
		want, err := baselineSim.Run()
		if err != nil {
			t.Fatal(err)
		}

		goroutines := 8
		iters := 3
		if testing.Short() {
			goroutines, iters = 4, 2
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sim := proto.Fork()
				for it := 0; it < iters; it++ {
					for _, p := range pkts {
						if err := sim.Inject(p); err != nil {
							errs <- err
							return
						}
					}
					res, err := sim.Run()
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Stats, want.Stats) || !reflect.DeepEqual(res.Deliveries, want.Deliveries) {
						t.Errorf("%v: replica %d iter %d diverged from baseline", kind, g, it)
						return
					}
					sim.Reset()
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}
