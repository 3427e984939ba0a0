// Command benchgate turns `go test -bench` text output into a stable
// JSON artifact and gates two artifacts against a regression threshold.
// It is the CI benchmark gate: the workflow benchmarks the PR head and
// its merge base on the same runner, parses both, and fails the build
// when any benchmark regresses past the threshold — absolute numbers are
// machine-bound, so only same-runner ratios are judged. The same JSON
// schema is used for the benchmark records committed to the repo
// (BENCH_PR10.json), so artifacts and records stay diffable.
//
//	go test -run='^$' -bench=. -benchtime=3x . | benchgate parse -out bench.json -note "CI runner"
//	benchgate compare -base base.json -head head.json -threshold 0.20
//
// compare exits 1 (after printing every offending benchmark) if any
// benchmark present in both artifacts slowed down by more than the
// threshold; benchmarks present on only one side are reported but never
// fatal, so adding or retiring benchmarks cannot wedge the gate.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Environment records where an artifact was measured — enough to tell a
// laptop from a CI runner when reading committed records.
type Environment struct {
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note,omitempty"`
}

// Entry is one benchmark's measurement: the standard ns/op plus any
// custom ReportMetric values (deliveries/s, B/op, ...).
type Entry struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the JSON benchmark record benchgate reads and writes.
type Artifact struct {
	Environment Environment      `json:"environment"`
	Benchmarks  map[string]Entry `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: benchgate parse|compare [flags] (-h for details)")
	}
	switch args[0] {
	case "parse":
		return runParse(args[1:], stdin, stdout)
	case "compare":
		return runCompare(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want parse or compare)", args[0])
	}
}

func runParse(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchgate parse", flag.ContinueOnError)
	in := fs.String("in", "", "benchmark text input (default stdin)")
	out := fs.String("out", "", "JSON artifact output (default stdout)")
	note := fs.String("note", "", "free-form environment note recorded in the artifact")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	art, err := Parse(r)
	if err != nil {
		return err
	}
	art.Environment.Note = *note
	if len(art.Benchmarks) == 0 {
		return errors.New("no benchmark lines found in input")
	}
	enc, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out != "" {
		return os.WriteFile(*out, enc, 0o644)
	}
	_, err = stdout.Write(enc)
	return err
}

// Parse reads `go test -bench` text output: header lines (goos/goarch/
// cpu) feed the environment, and every "BenchmarkX  N  v unit  v unit..."
// line becomes an Entry. Repeated lines for one name (e.g. -count>1)
// keep the fastest ns/op, the conventional stable statistic for gating.
func Parse(r io.Reader) (*Artifact, error) {
	art := &Artifact{
		Environment: Environment{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Benchmarks:  map[string]Entry{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			art.Environment.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			art.Environment.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			art.Environment.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Iterations: iters, NsPerOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				e.NsPerOp = -1
				break
			}
			if fields[i+1] == "ns/op" {
				e.NsPerOp = v
				continue
			}
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[fields[i+1]] = v
		}
		if e.NsPerOp < 0 {
			continue
		}
		if prev, ok := art.Benchmarks[fields[0]]; ok && prev.NsPerOp <= e.NsPerOp {
			continue
		}
		art.Benchmarks[fields[0]] = e
	}
	return art, sc.Err()
}

func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchgate compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "baseline JSON artifact (required)")
	headPath := fs.String("head", "", "candidate JSON artifact (required)")
	threshold := fs.Float64("threshold", 0.20, "maximum tolerated ns/op regression, as a fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *headPath == "" {
		return errors.New("compare needs -base and -head")
	}
	base, err := load(*basePath)
	if err != nil {
		return err
	}
	head, err := load(*headPath)
	if err != nil {
		return err
	}

	regressions := writeDeltaTable(stdout, base, head, *threshold)
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%: %s",
			len(regressions), *threshold*100, strings.Join(regressions, ", "))
	}
	fmt.Fprintf(stdout, "gate passed: no benchmark regressed more than %.0f%%\n", *threshold*100)
	return nil
}

// writeDeltaTable renders the full per-benchmark comparison — always,
// pass or fail — so every CI log carries the reviewable benchmark
// trajectory, not just the offenders. Rows are sorted by name (GONE
// rows last), the header makes the columns greppable, and the summary
// line counts every verdict. Returns the regressed benchmark names.
func writeDeltaTable(stdout io.Writer, base, head *Artifact, threshold float64) []string {
	names := make([]string, 0, len(head.Benchmarks))
	for name := range head.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var gone []string
	for name := range base.Benchmarks {
		if _, ok := head.Benchmarks[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)

	fmt.Fprintf(stdout, "%-9s %-60s %14s  %14s  %8s\n",
		"VERDICT", "BENCHMARK", "BASE ns/op", "HEAD ns/op", "DELTA")
	var regressions []string
	var okCount, newCount int
	for _, name := range names {
		h := head.Benchmarks[name]
		b, present := base.Benchmarks[name]
		if !present {
			fmt.Fprintf(stdout, "%-9s %-60s %14s  %14.0f  %8s\n", "NEW", name, "-", h.NsPerOp, "-")
			newCount++
			continue
		}
		delta := (h.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSED"
			regressions = append(regressions, name)
		} else {
			okCount++
		}
		fmt.Fprintf(stdout, "%-9s %-60s %14.0f  %14.0f  %+7.1f%%\n",
			verdict, name, b.NsPerOp, h.NsPerOp, delta*100)
	}
	for _, name := range gone {
		fmt.Fprintf(stdout, "%-9s %-60s %14.0f  %14s  %8s\n",
			"GONE", name, base.Benchmarks[name].NsPerOp, "-", "-")
	}
	fmt.Fprintf(stdout, "summary: %d compared (%d ok, %d regressed), %d new, %d gone; threshold %.0f%%\n",
		okCount+len(regressions), okCount, len(regressions), newCount, len(gone), threshold*100)
	return regressions
}

func load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(art.Benchmarks) > 0 {
		return &art, nil
	}
	// Committed benchmark records (BENCH_PR*.json) wrap two artifacts as
	// {pr, note, schema, before, after}; the "after" side is the record's
	// head measurement and serves as the baseline for later gates.
	var record struct {
		After *Artifact `json:"after"`
	}
	if err := json.Unmarshal(data, &record); err == nil &&
		record.After != nil && len(record.After.Benchmarks) > 0 {
		return record.After, nil
	}
	return nil, fmt.Errorf("%s: no benchmarks (neither a plain artifact nor a committed record)", path)
}
