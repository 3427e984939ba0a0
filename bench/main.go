// Command bench is the end-to-end benchmark of the mapping fleet and the
// paper suite. It runs one workload for one seed, prints every metric as
// "workload metric value unit", checks every output the program
// produced, writes a result file, and ends with one JSON line:
//
//	bash bench/run.sh --workload fleet-mix --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with the benchmark's own
// tracing off. --trace 1 repeats the workload with spans recorded around
// every call into a layer and reports the per-layer metrics instead; the
// spans go to -spans. The compare subcommand judges two sets of result
// files (see compare.go). bench/README.md describes the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric in a result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the file a run writes; compare reads these.
type result struct {
	summary
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Digest   string    `json:"outputs_digest"`
	Problems []string  `json:"problems,omitempty"`
	Started  time.Time `json:"started"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: fleet-mix, replay-heavy, partition-heavy or paper-quick")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 25, "length of the measured phase in seconds (BENCHMARK.json's run_seconds, which the committed digests are for)")
		trace   = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
		out     = fs.String("out", "", "result file (default .bench_build/results/<workload>-seed<N>-trace<T>-<time>.json)")
		spans   = fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<N>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := runConfig{
		seed:       *seed,
		phase:      time.Duration(*seconds * float64(time.Second)),
		trace:      *trace == 1,
		setups:     setupRuns,
		rerunLimit: 8,
	}
	if cfg.trace {
		cfg.rerunLimit = 40
	}
	committed, err := committedDigests()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, o, err := execute(context.Background(), w, cfg, committed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.trace {
		// The traced run's job time, set against an untraced run's
		// job_p50_ms on the same seed, is the tracing overhead.
		fmt.Fprintf(stdout, "%s traced job_p50_ms %.6g ms\n", w.name, endToEndValues(o)["job_p50_ms"])
	}
	if cfg.trace && o.spans != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		}
		if err := o.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
		layers := layerSelfTimes(o.spans.snapshot())
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Strings(names)
		for _, l := range names {
			fmt.Fprintf(stdout, "%s layer %s self %.4f ms/job\n", w.name, l, layers[l])
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(".bench_build", "results",
			fmt.Sprintf("%s-seed%d-trace%d-%d.json", w.name, cfg.seed, *trace, res.Started.UnixNano()))
	}
	if err := writeResult(path, res); err != nil {
		fmt.Fprintln(stderr, "bench: writing result:", err)
		return 1
	}
	if err := printResult(stdout, stderr, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs a workload and assembles its result, checking its
// outputs_digest against the committed digests.
func execute(ctx context.Context, w workload, cfg runConfig, committed map[string]string) (*result, *outcome, error) {
	started := time.Now()
	o, err := w.run(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	seconds := cfg.phase.Seconds()
	o.problems = append(o.problems, checkDigest(committed, digestKey(w.name, cfg.seed, seconds), o.digest)...)

	defs, values := endToEnd, endToEndValues(o)
	if cfg.trace {
		defs, values = perLayer(), o.layers
		values["process.heap_live_peak_mb"] = o.heapLivePeakMB
		for _, d := range defs {
			if _, ok := values[d.name]; !ok {
				values[d.name] = 0 // the workload does not exercise this layer
			}
		}
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	if o.attempted == 0 {
		o.problems = append(o.problems, "no job was attempted")
	}
	return &result{
		summary: summary{
			Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
			Attempted: o.attempted,
			Failed:    o.failed,
			Metrics:   metrics,
		},
		Workload: w.name,
		Seed:     cfg.seed,
		Seconds:  seconds,
		Trace:    cfg.trace,
		Digest:   o.digest,
		Problems: o.problems,
		Started:  started,
	}, o, nil
}

func writeResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints one line per metric, the problems found, and the
// summary JSON line last.
func printResult(stdout, stderr io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", res.Workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%s outputs_digest %s\n", res.Workload, res.Digest)
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "bench: INCORRECT:", p)
	}
	b, err := json.Marshal(res.summary)
	if err != nil {
		return fmt.Errorf("encoding the summary: %w", err)
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}
