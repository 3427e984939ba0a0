package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeExperiments is paper-quick's experiment list in the smoke test: a
// full pass takes seconds, these take a fraction of one.
var smokeExperiments = []string{"accuracy", "ablation-aer", "scenarios", "remap"}

// TestSmoke runs every workload shrunk to about a second (half that with
// -short), untraced and traced, and requires correct outputs and every
// metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	phase := time.Second
	if testing.Short() {
		phase = 500 * time.Millisecond
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 1, phase: phase, trace: trace, setups: 1, rerunLimit: 4, experiments: smokeExperiments}
			res, _, err := execute(context.Background(), w, cfg, nil)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", w.name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			defs := spec.EndToEnd
			if trace {
				defs = spec.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.name, trace, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestMismatchedDigestFailsTheRun runs a workload against a committed
// digest that cannot match.
func TestMismatchedDigestFailsTheRun(t *testing.T) {
	w, err := lookupWorkload("paper-quick")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 1, phase: time.Millisecond, setups: 1, experiments: []string{"ablation-aer"}}
	committed := map[string]string{digestKey(w.name, 1, cfg.phase.Seconds()): strings.Repeat("0", 64)}
	res, _, err := execute(context.Background(), w, cfg, committed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a run whose digest differs from the committed one reported correct")
	}
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not found next to bench/: %v", err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode keeps BENCHMARK.json and the code from drifting.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, code []metricDef, names, units []string) {
		if len(code) != len(names) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the code %d", kind, len(names), len(code))
			return
		}
		for i, d := range code {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer(), names, units)
}
