package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec mirrors BENCHMARK.json, the benchmark's definition.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric of BENCHMARK.json. Only end-to-end metrics
// have a bound: the share of the parent's median by which the metric may
// get worse.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Rules of the paired comparison.
const (
	minPairs = 10  // a gain claim needs at least this many alternating pairs
	winShare = 0.9 // and the change must win this share of them
)

// runCompare is `bench compare -parent DIR -change DIR [-claim metric@workload]`.
// It reads the untraced result files of two commits and prints one row per
// workload: for every end-to-end metric the change's median against the
// parent's, judged by the metric's bound from BENCHMARK.json. With -claim
// it also judges a claimed gain by the paired rule. It exits 1 when a
// metric regressed or the claim is not met.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		parent = fs.String("parent", "", "directory of the parent commit's result files")
		change = fs.String("change", "", "directory of the change's result files")
		claim  = fs.String("claim", "", "claimed gain, as metric@workload")
		spec   = fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		fmt.Fprintln(stderr, "bench compare: -parent and -change are required")
		return 2
	}
	ok, err := compare(*spec, *parent, *change, *claim, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func compare(specPath, parentDir, changeDir, claim string, w io.Writer) (bool, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := loadResults(parentDir)
	if err != nil {
		return false, err
	}
	change, err := loadResults(changeDir)
	if err != nil {
		return false, err
	}
	var names []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return false, errors.New("no workload has results on both sides")
	}
	sort.Strings(names)
	ok := true
	for _, wl := range names {
		p, c := parent[wl], change[wl]
		fmt.Fprintf(w, "%s (parent n=%d, change n=%d)\n", wl, len(p), len(c))
		for _, m := range spec.EndToEnd {
			v := judge(values(p, m.Name), values(c, m.Name), m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "  %-16s %-10s change/parent %.4f (parent median %.6g %s, IQR %.1f%%; change median %.6g %s, IQR %.1f%%; bound %.0f%%)\n",
				m.Name, v.verdict, v.ratio, v.parentMedian, m.Unit, 100*v.parentSpread, v.changeMedian, m.Unit, 100*v.changeSpread, 100*m.Bound)
			if v.verdict == verdictRegressed {
				ok = false
			}
		}
	}
	if claim != "" {
		metric, wl, found := strings.Cut(claim, "@")
		if !found {
			return false, fmt.Errorf("-claim %q: want metric@workload", claim)
		}
		higher := false
		known := false
		for _, m := range spec.EndToEnd {
			if m.Name == metric {
				higher, known = m.Better == "higher", true
			}
		}
		if !known {
			return false, fmt.Errorf("-claim: %q is not an end-to-end metric", metric)
		}
		g := judgeGain(values(parent[wl], metric), values(change[wl], metric), higher)
		fmt.Fprintf(w, "claim %s: %s — change won %d of %d pairs (needs %d pairs and %.0f%%); median change %.6g vs parent %.6g, difference %.6g vs parent IQR %.6g\n",
			claim, g.verdict(), g.wins, g.pairs, minPairs, 100*winShare, g.changeMedian, g.parentMedian, g.diff, g.parentIQR)
		if !g.met() {
			ok = false
		}
	}
	return ok, nil
}

// loadResults reads the untraced result files of a directory, grouped by
// workload in the order the runs started.
func loadResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	return out, nil
}

func values(rs []*result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// Verdicts of the no-regression rule.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

type metricVerdict struct {
	verdict                    string
	ratio                      float64 // change median / parent median
	parentMedian, changeMedian float64
	parentSpread, changeSpread float64 // IQR as a share of the median
}

// judge applies the no-regression rule to one metric on one workload: the
// change may be worse than the parent by at most bound, judged on
// medians. When either side's spread is wider than the bound the metric
// is unresolved, unless every change run beats every parent run.
func judge(parent, change []float64, higher bool, bound float64) metricVerdict {
	v := metricVerdict{parentMedian: median(parent), changeMedian: median(change)}
	v.ratio = ratio(v.changeMedian, v.parentMedian)
	v.parentSpread = spread(parent)
	v.changeSpread = spread(change)
	worse := v.ratio - 1
	if higher {
		worse = -worse
	}
	switch {
	case len(parent) == 0 || len(change) == 0:
		v.verdict = verdictUnresolved
	case allBetter(parent, change, higher):
		v.verdict = verdictOK
	case v.parentSpread > bound || v.changeSpread > bound:
		v.verdict = verdictUnresolved
	case worse > bound:
		v.verdict = verdictRegressed
	default:
		v.verdict = verdictOK
	}
	return v
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// allBetter reports whether every change value beats every parent value.
func allBetter(parent, change []float64, higher bool) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p, higher) {
				return false
			}
		}
	}
	return true
}

func better(a, b float64, higher bool) bool {
	if higher {
		return a > b
	}
	return a < b
}

type gainVerdict struct {
	pairs, wins                  int
	parentMedian, changeMedian   float64
	diff, parentIQR              float64
	enoughPairs, wonPairs, clear bool
}

func (g gainVerdict) met() bool { return g.enoughPairs && g.wonPairs && g.clear }

func (g gainVerdict) verdict() string {
	switch {
	case !g.enoughPairs:
		return "not met (too few pairs)"
	case !g.wonPairs:
		return "not met (too few wins)"
	case !g.clear:
		return "not met (difference within the parent's IQR)"
	}
	return "met"
}

// judgeGain applies the gain rule: runs pair up in the order they started
// (the parent and change runs alternate), the change must win at least
// winShare of at least minPairs pairs, ties counting for neither, and the
// medians must differ, in the change's favour, by more than the parent's
// interquartile range.
func judgeGain(parent, change []float64, higher bool) gainVerdict {
	g := gainVerdict{pairs: min(len(parent), len(change)), parentMedian: median(parent), changeMedian: median(change)}
	for i := 0; i < g.pairs; i++ {
		if better(change[i], parent[i], higher) {
			g.wins++
		}
	}
	q1, q3 := quartiles(parent)
	g.parentIQR = q3 - q1
	g.diff = g.parentMedian - g.changeMedian
	if higher {
		g.diff = -g.diff
	}
	g.enoughPairs = g.pairs >= minPairs
	g.wonPairs = float64(g.wins) >= winShare*float64(g.pairs)
	g.clear = g.diff > g.parentIQR
	return g
}
