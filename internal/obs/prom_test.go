package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestPromLabel pins the text-exposition escaping rules: exactly
// backslash, double-quote and newline are escaped, everything else —
// raw UTF-8 included — passes through byte-for-byte. Go's %q would
// \u-escape the non-ASCII cases, which is the bug this replaces.
func TestPromLabel(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", ""},
		{"plain", "worker-3.example:8080", "worker-3.example:8080"},
		{"backslash", `a\b`, `a\\b`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "line1\nline2", `line1\nline2`},
		{"all three", "\\\"\n", `\\\"\n`},
		{"utf8 passthrough", "tenant-日本-héllo", "tenant-日本-héllo"},
		{"tab untouched", "a\tb", "a\tb"},
		{"mixed", "p\\q\"r\ns-ü", `p\\q\"r\ns-ü`},
	}
	for _, c := range cases {
		if got := PromLabel(c.in); got != c.want {
			t.Errorf("%s: PromLabel(%q) = %q, want %q", c.name, c.in, got, c.want)
		}
	}
}

// render returns r's full exposition.
func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestHistogramCumulativeBoundaries pins the Prometheus bucket
// semantics: buckets are cumulative (every bucket whose upper bound is
// >= the value counts the observation, `le` meaning less-or-equal), a
// value landing exactly on a bound belongs to that bucket, and a value
// above the top bound is visible only through +Inf and the sum.
func TestHistogramCumulativeBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("h_seconds", "Test histogram.", "stage", []string{"a"}, []float64{0.001, 0.025, 1})

	h.Observe("a", 0.025) // exactly on the middle bound
	want := "# HELP h_seconds Test histogram.\n" +
		"# TYPE h_seconds histogram\n" +
		"h_seconds_bucket{stage=\"a\",le=\"0.001\"} 0\n" +
		"h_seconds_bucket{stage=\"a\",le=\"0.025\"} 1\n" +
		"h_seconds_bucket{stage=\"a\",le=\"1\"} 1\n" +
		"h_seconds_bucket{stage=\"a\",le=\"+Inf\"} 1\n" +
		"h_seconds_sum{stage=\"a\"} 0.025\n" +
		"h_seconds_count{stage=\"a\"} 1\n"
	if got := render(t, r); got != want {
		t.Fatalf("after Observe(0.025):\n%s\nwant:\n%s", got, want)
	}

	h.Observe("a", 0.001) // exactly on the lowest bound: every bucket
	h.Observe("a", 31)    // above the top bound: +Inf and the sum only
	want = "# HELP h_seconds Test histogram.\n" +
		"# TYPE h_seconds histogram\n" +
		"h_seconds_bucket{stage=\"a\",le=\"0.001\"} 1\n" +
		"h_seconds_bucket{stage=\"a\",le=\"0.025\"} 2\n" +
		"h_seconds_bucket{stage=\"a\",le=\"1\"} 2\n" +
		"h_seconds_bucket{stage=\"a\",le=\"+Inf\"} 3\n" +
		"h_seconds_sum{stage=\"a\"} " + strconv.FormatFloat(0.025+0.001+31, 'g', -1, 64) + "\n" +
		"h_seconds_count{stage=\"a\"} 3\n"
	if got := render(t, r); got != want {
		t.Fatalf("after three observations:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryRejectsBadFamilies pins registration-time checks: an
// invalid metric or label name, a reserved histogram label, an empty or
// multi-line help and a second family under a taken name all panic at
// registration, never at render time.
func TestRegistryRejectsBadFamilies(t *testing.T) {
	cases := []struct {
		name string
		reg  func(r *Registry)
	}{
		{"empty name", func(r *Registry) { r.Counter("", "Help.") }},
		{"leading digit", func(r *Registry) { r.Counter("1jobs_total", "Help.") }},
		{"dash", func(r *Registry) { r.Gauge("jobs-queued", "Help.") }},
		{"bad label", func(r *Registry) { r.CounterVec("jobs_total", "Help.", "job state") }},
		{"colon label", func(r *Registry) { r.CounterVec("jobs_total", "Help.", "a:b") }},
		{"le label", func(r *Registry) { r.HistogramVec("h", "Help.", "le", []string{"x"}, []float64{1}) }},
		{"unsorted buckets", func(r *Registry) { r.HistogramVec("h", "Help.", "stage", []string{"x"}, []float64{2, 1}) }},
		{"empty help", func(r *Registry) { r.Counter("jobs_total", "") }},
		{"multi-line help", func(r *Registry) { r.Counter("jobs_total", "a\nb") }},
		{"duplicate", func(r *Registry) {
			r.Counter("jobs_total", "Help.")
			r.GaugeFunc("jobs_total", "Help.", func() int64 { return 0 })
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not fail", c.name)
				}
			}()
			c.reg(NewRegistry())
		}()
	}

	r := NewRegistry()
	r.Counter("ns:jobs_total", "Colons are legal in metric names.")
	r.HistogramVec("h", "Help.", "stage", []string{"x"}, []float64{1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("observing an undeclared label value did not fail")
			}
		}()
		r.HistogramVec("h2", "Help.", "stage", []string{"x"}, []float64{1}).Observe("y", 1)
	}()
}

// TestRegistryRender pins the exposition shape: families in
// registration order, label values sorted and escaped through
// PromLabel, integers in %d form however large, ratios in shortest
// float form.
func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "By node.", "node")
	c := r.Counter("a_total", "Plain counter.")
	g := r.Gauge("a_level", "Plain gauge.")
	r.RatioFunc("a_ratio", "Ratio.", func() float64 { return 0.25 })
	r.GaugeVecFunc("b_nodes", "By state.", "state", func() map[string]int64 { return map[string]int64{"dead": 1, "alive": 2} })
	v.Inc("zeta")
	v.Add("a\"b\\c\nd", 2)
	v.Inc("alpha")
	c.Add(1_000_000)
	g.Add(3)
	g.Add(-1)

	want := "# HELP x_total By node.\n" +
		"# TYPE x_total counter\n" +
		"x_total{node=\"a\\\"b\\\\c\\nd\"} 2\n" +
		"x_total{node=\"alpha\"} 1\n" +
		"x_total{node=\"zeta\"} 1\n" +
		"# HELP a_total Plain counter.\n" +
		"# TYPE a_total counter\n" +
		"a_total 1000000\n" +
		"# HELP a_level Plain gauge.\n" +
		"# TYPE a_level gauge\n" +
		"a_level 2\n" +
		"# HELP a_ratio Ratio.\n" +
		"# TYPE a_ratio gauge\n" +
		"a_ratio 0.25\n" +
		"# HELP b_nodes By state.\n" +
		"# TYPE b_nodes gauge\n" +
		"b_nodes{state=\"alive\"} 2\n" +
		"b_nodes{state=\"dead\"} 1\n"
	if got := render(t, r); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	if v.Value("alpha") != 1 || v.Value("missing") != 0 || c.Value() != 1_000_000 || g.Value() != 2 {
		t.Fatal("Value accessors disagree with the rendered samples")
	}
}

// TestRegistryConcurrentRender updates every metric kind from several
// goroutines while WritePrometheus renders; run under -race it proves
// the registry needs no caller-side locking, and the final render
// accounts for every update.
func TestRegistryConcurrentRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "Counter.")
	g := r.Gauge("g", "Gauge.")
	v := r.CounterVec("v_total", "Vec.", "k")
	h := r.HistogramVec("h", "Histogram.", "k", []string{"a", "b"}, []float64{0.5, 1})
	late := make(chan struct{})

	const workers, n = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				c.Inc()
				g.Add(1)
				v.Inc(strconv.Itoa(j % 3))
				h.Observe([]string{"a", "b"}[j%2], float64(j%3)/2)
			}
		}(i)
	}
	go func() {
		defer close(late)
		// Registering while others render and update must be safe too.
		r.GaugeFunc("late", "Registered mid-flight.", func() int64 { return 1 })
	}()
	for k := 0; k < 20; k++ {
		render(t, r)
	}
	wg.Wait()
	<-late

	out := render(t, r)
	for _, want := range []string{
		"c_total 2000\n", "g 2000\n",
		"h_count{k=\"a\"} 1000\n", "h_count{k=\"b\"} 1000\n",
		"late 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("final render missing %q:\n%s", want, out)
		}
	}
	if sum := v.Value("0") + v.Value("1") + v.Value("2"); sum != workers*n {
		t.Errorf("vec total = %d, want %d", sum, workers*n)
	}
}

// TestRegistryUpdatesDoNotAllocate pins the hot path: once a label
// value exists, updating any metric kind allocates nothing, so the
// per-job and per-stage bookkeeping adds no garbage to a job.
func TestRegistryUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "Counter.")
	g := r.Gauge("g", "Gauge.")
	v := r.CounterVec("v_total", "Vec.", "k")
	h := r.HistogramVec("h", "Histogram.", "k", []string{"a", "b"}, []float64{0.5, 1})
	v.Inc("done")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		v.Inc("done")
		h.Observe("b", 0.7)
	}); n != 0 {
		t.Fatalf("metric updates allocate %v times per run, want 0", n)
	}
}
