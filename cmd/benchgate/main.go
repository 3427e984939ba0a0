// Command benchgate turns `go test -bench` text output into a stable
// JSON artifact and gates two artifacts against a regression threshold.
// It is the CI benchmark gate: the workflow benchmarks the PR head and
// its merge base on the same runner, parses both, and fails the build
// when any benchmark regresses past the threshold — absolute numbers are
// machine-bound, so only same-runner ratios are judged. The same JSON
// schema is used for the benchmark records committed to the repo
// (BENCH_RECORD.json), so artifacts and records stay diffable.
//
//	go test -run='^$' -bench=. -benchtime=3x -benchmem . | benchgate parse -out bench.json -note "CI runner"
//	benchgate compare -base base.json -head head.json -threshold 0.20
//
// compare exits 1 (after printing every offending benchmark) if any
// benchmark present in both artifacts slowed down, or (when both sides
// were run with -benchmem) raised its allocs/op, by more than the
// threshold; benchmarks present on only one side are reported but never
// fatal, so adding or retiring benchmarks cannot wedge the gate. Names
// are paired across GOMAXPROCS: the -N suffix `go test` appends at
// GOMAXPROCS N > 1 is stripped when matching (see pairNames).
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
		Environment: Environment{GoOS: runtime.GOOS, GoArch: runtime.GOARCH},
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
	art.Environment.GOMAXPROCS = runProcs(art.Benchmarks)
	return art, sc.Err()
}

// runProcs reads the run's GOMAXPROCS off its names: at N > 1 every
// name ends in -N. Without one suffix shared by all it is 1 (or mixed
// -cpu values, where only identical names pair).
func runProcs(benchmarks map[string]Entry) int {
	procs := 1
	for name := range benchmarks {
		n, err := strconv.Atoi(name[strings.LastIndexByte(name, '-')+1:])
		if err != nil || n <= 1 || (procs > 1 && n != procs) {
			return 1
		}
		procs = n
	}
	return procs
}

func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchgate compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "baseline JSON artifact (required)")
	headPath := fs.String("head", "", "candidate JSON artifact (required)")
	threshold := fs.Float64("threshold", 0.20, "maximum tolerated ns/op and allocs/op regression, as a fraction")
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
		return fmt.Errorf("%d regression(s) beyond %.0f%%: %s",
			len(regressions), *threshold*100, strings.Join(regressions, ", "))
	}
	fmt.Fprintf(stdout, "gate passed: no benchmark regressed more than %.0f%%\n", *threshold*100)
	return nil
}

// writeDeltaTable renders the full per-benchmark comparison — always,
// pass or fail — so every CI log carries the reviewable benchmark
// trajectory, not just the offenders. Rows are sorted by name (GONE
// rows last), the header makes the columns greppable, and the summary
// line counts every verdict. B/op and allocs/op show "-" where a side
// ran without -benchmem. Returns the regressed benchmarks, each tagged
// with the metric that regressed.
func writeDeltaTable(stdout io.Writer, base, head *Artifact, threshold float64) []string {
	pairs := pairNames(base, head)
	names := make([]string, 0, len(head.Benchmarks))
	for name := range head.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	compared := map[string]bool{}
	for _, b := range pairs {
		compared[b] = true
	}
	var gone []string
	for name := range base.Benchmarks {
		if !compared[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)

	const row = "%-9s %-60s %14s  %14s  %8s  %12s  %12s  %10s  %10s\n"
	fmt.Fprintf(stdout, row, "VERDICT", "BENCHMARK", "BASE ns/op", "HEAD ns/op", "DELTA",
		"BASE B/op", "HEAD B/op", "BASE allocs", "HEAD allocs")
	var regressions []string
	var okCount, badCount, newCount int
	for _, name := range names {
		h := head.Benchmarks[name]
		b, present := base.Benchmarks[pairs[name]]
		if !present {
			fmt.Fprintf(stdout, row, "NEW", name, "-", num(h.NsPerOp, true), "-",
				"-", metric(h, "B/op"), "-", metric(h, "allocs/op"))
			newCount++
			continue
		}
		delta := (h.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSED"
			regressions = append(regressions, name+" (ns/op)")
		}
		ba, bok := b.Metrics["allocs/op"]
		ha, hok := h.Metrics["allocs/op"]
		if bok && hok && ha > ba && (ba == 0 || (ha-ba)/ba > threshold) {
			verdict = "REGRESSED"
			regressions = append(regressions, name+" (allocs/op)")
		}
		if verdict == "ok" {
			okCount++
		} else {
			badCount++
		}
		fmt.Fprintf(stdout, row, verdict, name, num(b.NsPerOp, true), num(h.NsPerOp, true),
			fmt.Sprintf("%+7.1f%%", delta*100),
			metric(b, "B/op"), metric(h, "B/op"), metric(b, "allocs/op"), metric(h, "allocs/op"))
	}
	for _, name := range gone {
		b := base.Benchmarks[name]
		fmt.Fprintf(stdout, row, "GONE", name, num(b.NsPerOp, true), "-", "-",
			metric(b, "B/op"), "-", metric(b, "allocs/op"), "-")
	}
	fmt.Fprintf(stdout, "summary: %d compared (%d ok, %d regressed), %d new, %d gone; threshold %.0f%%\n",
		okCount+badCount, okCount, badCount, newCount, len(gone), threshold*100)
	return regressions
}

// pairNames maps each head benchmark to the base benchmark it is judged
// against: the one of the same name or, failing that, the one whose name
// matches once each side's GOMAXPROCS suffix is stripped — so a record
// taken at one GOMAXPROCS still gates a run at another. Head benchmarks
// without a counterpart are absent.
func pairNames(base, head *Artifact) map[string]string {
	stripped := make(map[string]string, len(base.Benchmarks))
	for name := range base.Benchmarks {
		stripped[stripProcs(name, base.Environment.GOMAXPROCS)] = name
	}
	pairs := make(map[string]string, len(head.Benchmarks))
	for name := range head.Benchmarks {
		if _, ok := base.Benchmarks[name]; ok {
			pairs[name] = name
		} else if b, ok := stripped[stripProcs(name, head.Environment.GOMAXPROCS)]; ok {
			pairs[name] = b
		}
	}
	return pairs
}

// stripProcs drops the "-N" suffix `go test -bench` appends to every
// benchmark name when GOMAXPROCS is N > 1. At GOMAXPROCS 1 (or unknown)
// nothing was appended, so a name that itself ends in -<digits> — a
// sub-benchmark "k-4" — is left as it is.
func stripProcs(name string, procs int) string {
	if procs <= 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}

// metric formats one of an entry's custom metrics, "-" when absent.
func metric(e Entry, unit string) string {
	v, ok := e.Metrics[unit]
	return num(v, ok)
}

func num(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
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
	// Committed benchmark records (BENCH_*.json) wrap two artifacts as
	// {note, schema, before, after}; the "after" side is the record's
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
