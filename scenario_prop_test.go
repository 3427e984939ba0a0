package snnmap

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/genapp"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/spike"
)

// The scenario property harness pins, for every generator family × every
// sampled partitioner × every sampled architecture, the cross-cutting
// invariants each pipeline stage must preserve — the conformance layer
// performance PRs are verified against:
//
//  1. spike conservation — every packet injected into the NoC is delivered
//     to every crossbar of its destination mask, and the injected counts
//     match the paper's Eq. 7–8 cost model per AER mode;
//  2. seed determinism — the same workload spec yields a byte-identical
//     graph and a byte-identical result Table end to end;
//  3. cluster-capacity feasibility — no technique's mapping overfills any
//     crossbar (paper Eq. 4–5);
//  4. Eq. 7–8 consistency — the analytical fitness F equals the replayed
//     per-synapse interconnect traffic;
//  5. streaming ≡ trace — a default session reports exactly what a
//     WithTrace session, whose delivery sink also keeps the trace,
//     reports.
//
// The hypergraph-cut and incremental-remap invariants (delta moves ≡ the
// referenceHyperCut oracle, cross-seed/worker determinism, post-remap
// feasibility and conservation, empty-delta no-op) extend this harness in
// hypercut_prop_test.go over the same family × technique × architecture
// grid.

// propSpec sizes one harness workload: `go test -short` shrinks the
// networks and characterization runs so the full family × partitioner ×
// architecture matrix stays inside the race-enabled CI budget, while the
// default (tier-1) run exercises larger instances.
func propSpec(family string) string {
	n, dur := 160, 400
	if testing.Short() {
		n, dur = 80, 200
	}
	return fmt.Sprintf("gen:%s:n=%d,dur=%d,seed=7", family, n, dur)
}

// propPartitioners samples one deterministic heuristic and the paper's
// seeded stochastic PSO (small swarm — the harness checks invariants, not
// solution quality).
func propPartitioners() []Partitioner {
	return []Partitioner{
		GreedyPartitioner,
		NewPSO(PSOConfig{SwarmSize: 8, Iterations: 8, Seed: 5, Workers: 1}),
	}
}

// propArchNames samples both interconnect families of the registry.
var propArchNames = []string{"tree", "mesh"}

// graphJSON serializes the whole of a spike graph (neurons, CSR, spike
// trains, groups, duration) for byte-level comparison.
func graphJSON(t *testing.T, app *App) []byte {
	t.Helper()
	g := app.Graph
	b, err := json.Marshal(struct {
		Neurons    int
		CSR        graph.CSR
		Spikes     []spike.Train
		Groups     []graph.Group
		DurationMs int64
	}{g.Neurons, g.CSR, g.Spikes, g.Groups, g.DurationMs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reportTableBytes renders a report as its canonical CSV Table — the
// byte-identical artifact the seed-determinism invariant compares.
func reportTableBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	tab, err := NewReportTable(rep)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScenarioInvariants(t *testing.T) {
	ctx := context.Background()
	for _, family := range genapp.Families() {
		family := family
		t.Run(family, func(t *testing.T) {
			spec := propSpec(family)
			cfg := AppConfig{Seed: 1, DurationMs: 300}
			app, err := BuildApp(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Invariant 2a — seed determinism at the graph level: the same
			// spec builds a byte-identical workload.
			app2, err := BuildApp(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(graphJSON(t, app), graphJSON(t, app2)) {
				t.Fatalf("%s: same spec produced different graphs", spec)
			}

			for _, archName := range propArchNames {
				for _, pt := range propPartitioners() {
					pt := pt
					t.Run(archName+"/"+pt.Name(), func(t *testing.T) {
						arch, err := NewArch(archName, app.Graph, ArchSpec{})
						if err != nil {
							t.Fatal(err)
						}
						pl, err := NewPipeline(app, arch)
						if err != nil {
							t.Fatal(err)
						}
						rep, err := pl.Run(ctx, pt)
						if err != nil {
							t.Fatal(err)
						}

						// Invariant 3 — capacity feasibility: the placed
						// assignment satisfies Eq. 4–5 on this architecture.
						if err := pl.Problem().Validate(rep.Assignment); err != nil {
							t.Fatalf("infeasible mapping: %v", err)
						}

						// Invariant 4 — Eq. 7–8 consistency: the analytic
						// per-mode packet counts derived from graph +
						// assignment.
						wantSyn, wantXbar, wantMulti := aerExpectations(app.Graph, rep.Assignment, arch.Crossbars)
						if cost := pl.Problem().Cost(rep.Assignment); cost != wantSyn {
							t.Fatalf("analytic per-synapse count %d != fitness F %d", wantSyn, cost)
						}
						// The pipeline's default AER mode is per-synapse:
						// replayed traffic must equal the fitness F of the
						// *placed* assignment.
						if rep.NoC.Injected != wantSyn {
							t.Fatalf("replayed traffic %d != Eq. 7–8 count %d", rep.NoC.Injected, wantSyn)
						}

						// Invariant 1 — spike conservation across all three
						// AER packetizations: injected matches the mode's
						// cost model and every masked destination receives
						// exactly one arrival (unicast: delivered ==
						// injected; multicast: delivered == the distinct
						// destination count).
						for _, mode := range []struct {
							aer                     hardware.AERMode
							wantInject, wantDeliver int64
						}{
							{hardware.PerSynapse, wantSyn, wantSyn},
							{hardware.PerCrossbar, wantXbar, wantXbar},
							{hardware.MulticastAER, wantMulti, wantXbar},
						} {
							a := arch
							a.AER = mode.aer
							nr, err := SimulateTraffic(app.Graph, rep.Assignment, a)
							if err != nil {
								t.Fatal(err)
							}
							if nr.Stats.Injected != mode.wantInject {
								t.Fatalf("%s: injected %d, want %d", mode.aer, nr.Stats.Injected, mode.wantInject)
							}
							if nr.Stats.Delivered != mode.wantDeliver {
								t.Fatalf("%s: delivered %d, want %d (spikes lost or duplicated)", mode.aer, nr.Stats.Delivered, mode.wantDeliver)
							}
							if mode.aer == hardware.PerCrossbar {
								checkPerStreamConservation(t, app, rep.Assignment, arch.Crossbars, nr.Deliveries)
							}
						}

						// Invariant 5 — streaming ≡ trace: keeping the
						// trace changes no field of the report but the
						// trace itself.
						plTrace, err := NewPipeline(app, arch, WithTrace(true))
						if err != nil {
							t.Fatal(err)
						}
						repTrace, err := plTrace.Run(ctx, pt)
						if err != nil {
							t.Fatal(err)
						}
						if int64(len(repTrace.Deliveries)) != repTrace.NoC.Delivered {
							t.Fatalf("WithTrace kept %d of %d deliveries", len(repTrace.Deliveries), repTrace.NoC.Delivered)
						}
						repTrace.Deliveries = nil
						if !reflect.DeepEqual(rep, repTrace) {
							t.Fatal("streaming report diverges from the trace oracle")
						}

						// Invariant 2b — seed determinism end to end: the
						// rebuilt workload through a fresh session yields a
						// byte-identical result Table.
						plAgain, err := NewPipeline(app2, arch)
						if err != nil {
							t.Fatal(err)
						}
						repAgain, err := plAgain.Run(ctx, pt)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(reportTableBytes(t, rep), reportTableBytes(t, repAgain)) {
							t.Fatal("same spec produced different result tables")
						}
					})
				}
			}
		})
	}
}

// checkPerStreamConservation verifies trace-level spike conservation in
// per-crossbar AER mode: every (source neuron, remote destination crossbar)
// stream delivers exactly one packet per source spike — nothing lost,
// nothing duplicated, per stream and not just in aggregate.
func checkPerStreamConservation(t *testing.T, app *App, assign Assignment, crossbars int, deliveries []Delivery) {
	t.Helper()
	g := app.Graph
	type stream struct {
		src int32
		dst int
	}
	want := map[stream]int64{}
	csr := &g.CSR
	seen := make([]bool, crossbars)
	for i := 0; i < g.Neurons; i++ {
		spikes := int64(len(g.Spikes[i]))
		if spikes == 0 {
			continue
		}
		for k := range seen {
			seen[k] = false
		}
		for _, post := range csr.OutPost(i) {
			if k := assign[post]; k != assign[i] && !seen[k] {
				seen[k] = true
				want[stream{int32(i), k}] = spikes
			}
		}
	}
	got := map[stream]int64{}
	for _, d := range deliveries {
		got[stream{d.SrcNeuron, d.Dst}]++
	}
	if len(got) != len(want) {
		t.Fatalf("delivery streams %d, want %d", len(got), len(want))
	}
	for st, n := range want {
		if got[st] != n {
			t.Fatalf("stream neuron %d → crossbar %d delivered %d packets, want %d", st.src, st.dst, got[st], n)
		}
	}
}

// TestScenarioSpecsResolve pins that every spec the scenarios experiment
// sweeps resolves through the application registry in both sizes.
func TestScenarioSpecsResolve(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for _, spec := range ScenarioSpecs(quick) {
			if _, err := BuildApp(spec, AppConfig{Seed: 1, DurationMs: 50}); err != nil {
				t.Fatalf("spec %s (quick=%v): %v", spec, quick, err)
			}
		}
	}
}
