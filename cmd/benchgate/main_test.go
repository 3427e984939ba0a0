package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkNoCReplay/mesh/saturated-8         	       3	   7206215 ns/op	   1633248 deliveries/s
BenchmarkNoCReplay/tree/light-8             	      12	    155071 ns/op
BenchmarkNoCReplay/tree/light-8             	      12	    150000 ns/op
garbage line
PASS
ok  	repro	14.038s
`

func TestParse(t *testing.T) {
	art, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if art.Environment.GoOS != "linux" || art.Environment.GoArch != "amd64" {
		t.Fatalf("environment: %+v", art.Environment)
	}
	if !strings.Contains(art.Environment.CPU, "Xeon") {
		t.Fatalf("cpu not captured: %q", art.Environment.CPU)
	}
	if len(art.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(art.Benchmarks))
	}
	mesh := art.Benchmarks["BenchmarkNoCReplay/mesh/saturated-8"]
	if mesh.NsPerOp != 7206215 || mesh.Iterations != 3 {
		t.Fatalf("mesh entry: %+v", mesh)
	}
	if mesh.Metrics["deliveries/s"] != 1633248 {
		t.Fatalf("custom metric lost: %+v", mesh.Metrics)
	}
	// Repeated lines keep the fastest run.
	if got := art.Benchmarks["BenchmarkNoCReplay/tree/light-8"].NsPerOp; got != 150000 {
		t.Fatalf("repeat handling: ns/op = %v, want 150000", got)
	}
}

// writeArtifact fabricates a one-benchmark JSON artifact.
func writeArtifact(t *testing.T, dir, name string, ns float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	art := fmt.Sprintf(`{"environment":{"goos":"linux","goarch":"amd64","gomaxprocs":8},`+
		`"benchmarks":{"BenchmarkNoCReplay/mesh-8":{"iterations":3,"ns_per_op":%.0f}}}`, ns)
	if err := os.WriteFile(path, []byte(art), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := writeArtifact(t, dir, "base.json", 1000000)

	var out strings.Builder
	ok := writeArtifact(t, dir, "ok.json", 1100000)
	if err := run([]string{"compare", "-base", base, "-head", ok}, nil, &out); err != nil {
		t.Fatalf("10%% slowdown must pass the 20%% gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "gate passed") {
		t.Fatalf("missing pass line:\n%s", out.String())
	}
	// The per-benchmark delta table renders even on pass — header,
	// per-row verdict, and a verdict-count summary — so CI logs always
	// carry the reviewable benchmark trajectory.
	for _, want := range []string{
		"VERDICT", "BASE ns/op", "HEAD ns/op", "DELTA",
		"ok        BenchmarkNoCReplay/mesh-8",
		"summary: 1 compared (1 ok, 0 regressed), 0 new, 0 gone",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("delta table missing %q on pass:\n%s", want, out.String())
		}
	}

	out.Reset()
	bad := writeArtifact(t, dir, "bad.json", 1300000)
	if err := run([]string{"compare", "-base", base, "-head", bad}, nil, &out); err == nil {
		t.Fatalf("30%% slowdown must fail the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("offender not printed:\n%s", out.String())
	}

	out.Reset()
	fast := writeArtifact(t, dir, "fast.json", 500000)
	if err := run([]string{"compare", "-base", base, "-head", fast, "-threshold", "0.05"}, nil, &out); err != nil {
		t.Fatalf("speedup must pass any gate: %v", err)
	}
}

// writeMemArtifact fabricates a one-benchmark artifact measured with
// -benchmem.
func writeMemArtifact(t *testing.T, dir, name string, ns, bytes, allocs float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	art := fmt.Sprintf(`{"benchmarks":{"BenchmarkNoCReplay/mesh-8":{"iterations":3,"ns_per_op":%.0f,`+
		`"metrics":{"B/op":%.0f,"allocs/op":%.0f}}}}`, ns, bytes, allocs)
	if err := os.WriteFile(path, []byte(art), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGatesAllocs pins the allocation gate: -benchmem columns are
// printed for both sides, an allocs/op rise past the threshold fails even
// when ns/op improves, and a side measured without -benchmem is never
// gated on allocations.
func TestCompareGatesAllocs(t *testing.T) {
	dir := t.TempDir()
	base := writeMemArtifact(t, dir, "base.json", 1000000, 4096, 100)

	var out strings.Builder
	fewer := writeMemArtifact(t, dir, "fewer.json", 1000000, 1024, 2)
	if err := run([]string{"compare", "-base", base, "-head", fewer}, nil, &out); err != nil {
		t.Fatalf("fewer allocations must pass: %v\n%s", err, out.String())
	}
	for _, want := range []string{"BASE B/op", "HEAD B/op", "BASE allocs", "HEAD allocs", "4096", "1024", "100", " 2\n"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	within := writeMemArtifact(t, dir, "within.json", 1000000, 4096, 115)
	if err := run([]string{"compare", "-base", base, "-head", within}, nil, &out); err != nil {
		t.Fatalf("15%% more allocations must pass the 20%% gate: %v\n%s", err, out.String())
	}

	out.Reset()
	more := writeMemArtifact(t, dir, "more.json", 500000, 4096, 130)
	err := run([]string{"compare", "-base", base, "-head", more}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "(allocs/op)") {
		t.Fatalf("30%% more allocations must fail the gate, got %v:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("offender not printed:\n%s", out.String())
	}

	out.Reset()
	noMem := writeArtifact(t, dir, "nomem.json", 1000000)
	if err := run([]string{"compare", "-base", noMem, "-head", more}, nil, &out); err != nil {
		t.Fatalf("a base without -benchmem must not gate allocations: %v\n%s", err, out.String())
	}
}

func TestCompareReportsNewAndGone(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	head := filepath.Join(dir, "head.json")
	if err := os.WriteFile(base, []byte(`{"benchmarks":{"BenchmarkOld-8":{"iterations":1,"ns_per_op":10}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(head, []byte(`{"benchmarks":{"BenchmarkNew-8":{"iterations":1,"ns_per_op":10}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"compare", "-base", base, "-head", head}, nil, &out); err != nil {
		t.Fatalf("disjoint artifacts must not fail the gate: %v", err)
	}
	for _, want := range []string{"NEW", "BenchmarkNew-8", "GONE", "BenchmarkOld-8"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	if err := run([]string{"parse", "-in", in, "-out", out, "-note", "unit test"}, nil, nil); err != nil {
		t.Fatal(err)
	}
	art, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	if art.Environment.Note != "unit test" || len(art.Benchmarks) != 2 {
		t.Fatalf("round trip lost data: %+v", art)
	}
}

// TestLoadCommittedRecord pins the committed-record fallback: compare
// accepts a BENCH_PR*.json {pr, note, before, after} wrapper as either
// side, gating against its "after" artifact.
func TestLoadCommittedRecord(t *testing.T) {
	dir := t.TempDir()
	record := filepath.Join(dir, "BENCH_PR0.json")
	wrapped := `{"pr":0,"note":"n","schema":"benchgate-artifact-pair/v1",` +
		`"before":{"environment":{"goos":"linux","goarch":"amd64","gomaxprocs":8},` +
		`"benchmarks":{"BenchmarkNoCReplay/mesh-8":{"iterations":3,"ns_per_op":900000}}},` +
		`"after":{"environment":{"goos":"linux","goarch":"amd64","gomaxprocs":8},` +
		`"benchmarks":{"BenchmarkNoCReplay/mesh-8":{"iterations":3,"ns_per_op":1000000}}}}`
	if err := os.WriteFile(record, []byte(wrapped), 0o644); err != nil {
		t.Fatal(err)
	}

	head := writeArtifact(t, dir, "head.json", 1050000)
	var out strings.Builder
	if err := run([]string{"compare", "-base", record, "-head", head}, nil, &out); err != nil {
		t.Fatalf("record baseline: %v\n%s", err, out.String())
	}
	// Gated against "after" (1.0ms), not "before" (0.9ms): a 5% delta
	// passes a 20% gate and the table's base column must show the
	// after-side value. The table renders on this path too.
	if !strings.Contains(out.String(), "1000000") {
		t.Fatalf("gate did not use the record's after artifact:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "VERDICT") || !strings.Contains(out.String(), "summary:") {
		t.Fatalf("delta table missing for committed-record baseline:\n%s", out.String())
	}

	slow := writeArtifact(t, dir, "slow.json", 1500000)
	out.Reset()
	if err := run([]string{"compare", "-base", record, "-head", slow}, nil, &out); err == nil {
		t.Fatalf("regression vs record must fail:\n%s", out.String())
	}

	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compare", "-base", empty, "-head", head}, nil, &out); err == nil ||
		!strings.Contains(err.Error(), "no benchmarks") {
		t.Fatalf("empty record error = %v", err)
	}
}

// TestCompareStripsGOMAXPROCSSuffix pins name pairing across GOMAXPROCS:
// a run at GOMAXPROCS 4 (every name suffixed -4) is gated against a
// record taken at GOMAXPROCS 1 (no suffixes), and a sub-benchmark whose
// own name ends in -<digits> keeps it.
func TestCompareStripsGOMAXPROCSSuffix(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int, names ...string) string {
		t.Helper()
		var entries []string
		for _, n := range names {
			entries = append(entries, fmt.Sprintf(`%q:{"iterations":3,"ns_per_op":1000}`, n))
		}
		path := filepath.Join(dir, name)
		art := fmt.Sprintf(`{"environment":{"gomaxprocs":%d},"benchmarks":{%s}}`, procs, strings.Join(entries, ","))
		if err := os.WriteFile(path, []byte(art), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	record := write("record.json", 1, "BenchmarkAnalyze", "BenchmarkRing/vnodes-64", "BenchmarkRing/vnodes")
	head := write("head.json", 4, "BenchmarkAnalyze-4", "BenchmarkRing/vnodes-64-4", "BenchmarkRing/vnodes-4")
	var out strings.Builder
	if err := run([]string{"compare", "-base", record, "-head", head, "-threshold", "10"}, nil, &out); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "summary: 3 compared (3 ok, 0 regressed), 0 new, 0 gone") {
		t.Fatalf("suffixed names were not paired with the record:\n%s", out.String())
	}

	// At GOMAXPROCS 1 nothing is stripped: "vnodes-64" is its own name,
	// not "vnodes" at GOMAXPROCS 64.
	if got := stripProcs("BenchmarkRing/vnodes-64", 1); got != "BenchmarkRing/vnodes-64" {
		t.Fatalf("stripProcs at GOMAXPROCS 1 = %q", got)
	}
	out.Reset()
	one := write("one.json", 1, "BenchmarkRing/vnodes-64")
	if err := run([]string{"compare", "-base", write("base.json", 1, "BenchmarkRing/vnodes"), "-head", one}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 compared (0 ok, 0 regressed), 1 new, 1 gone") {
		t.Fatalf("a GOMAXPROCS 1 sub-benchmark ending in -64 was mangled:\n%s", out.String())
	}
}

// TestParseRecordsRunGOMAXPROCS: the GOMAXPROCS an artifact records is
// the one the `go test` run used, read off its name suffixes, whatever
// GOMAXPROCS the parsing process has — so a run at -cpu 4 parsed at
// GOMAXPROCS 1 still pairs with a GOMAXPROCS 1 record.
func TestParseRecordsRunGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		text  string
		procs int
	}{
		{sample, 8},
		{"BenchmarkAnalyze-4 3 1000 ns/op\nBenchmarkRing/vnodes-64-4 3 1000 ns/op\n", 4},
		{"BenchmarkAnalyze 3 1000 ns/op\nBenchmarkRing/vnodes-64 3 1000 ns/op\n", 1},
		{"BenchmarkAnalyze-4 3 1000 ns/op\nBenchmarkAnalyze-2 3 1000 ns/op\n", 1}, // mixed -cpu
		{"", 1},
	} {
		art, err := Parse(strings.NewReader(tc.text))
		if err != nil {
			t.Fatal(err)
		}
		if art.Environment.GOMAXPROCS != tc.procs {
			t.Fatalf("GOMAXPROCS of %q = %d, want %d", tc.text, art.Environment.GOMAXPROCS, tc.procs)
		}
	}

	dir := t.TempDir()
	head, record := filepath.Join(dir, "head.json"), filepath.Join(dir, "record.json")
	for path, text := range map[string]string{
		head:   "BenchmarkAnalyze-4 3 1000 ns/op\nBenchmarkRing/vnodes-64-4 3 1000 ns/op\n",
		record: "BenchmarkAnalyze 3 1000 ns/op\nBenchmarkRing/vnodes-64 3 1000 ns/op\n",
	} {
		if err := run([]string{"parse", "-out", path}, strings.NewReader(text), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := run([]string{"compare", "-base", record, "-head", head}, nil, &out); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "summary: 2 compared (2 ok, 0 regressed), 0 new, 0 gone") {
		t.Fatalf("a run parsed at another GOMAXPROCS was not paired with the record:\n%s", out.String())
	}
}
