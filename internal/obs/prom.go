package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// PromLabel escapes a Prometheus label value per the text exposition
// format: backslash, double-quote and newline become backslash escapes,
// everything else — including raw multi-byte UTF-8 — passes through
// unchanged. This is deliberately NOT Go's %q, which \u-escapes
// non-ASCII runes and escapes control characters the format wants
// verbatim; a node URL or tenant name containing such bytes would render
// as a value no Prometheus parser reads back to the original string.
func PromLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Registry is the one place a process's metrics are declared and the
// only renderer of the Prometheus text exposition format. Every family
// is registered once — its name and label checked, duplicates refused —
// and WritePrometheus renders the families in registration order, so
// the output is deterministic and golden-testable. Registration errors
// are programming errors and panic. All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]bool
}

// family is one registered metric family: its HELP/TYPE header and a
// func appending its sample lines.
type family struct {
	name, help, kind string
	samples          func(b []byte) []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

func (r *Registry) register(name, help, kind, label string, samples func([]byte) []byte) {
	switch {
	case !validName(name, true):
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	case label != "" && (!validName(label, false) || kind == "histogram" && label == "le"):
		panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, label))
	case help == "" || strings.ContainsAny(help, "\\\n"):
		panic(fmt.Sprintf("obs: metric %s: help must be one non-empty line without backslashes", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	r.names[name] = true
	r.families = append(r.families, family{name: name, help: help, kind: kind, samples: samples})
}

// validName reports whether s is a legal Prometheus metric name (colon
// allowed) or label name.
func validName(s string, colon bool) bool {
	for i, c := range s {
		switch {
		case c == '_', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9' && i > 0:
		case c == ':' && colon:
		default:
			return false
		}
	}
	return s != ""
}

// WritePrometheus renders every registered family in the text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	var b []byte
	for _, f := range families {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		b = f.samples(b)
	}
	_, err := w.Write(b)
	return err
}

// intSample appends `name{labels} v`; integers always render in %d
// form, never in exponent notation.
func intSample(b []byte, name, labels string, v int64) []byte {
	b = append(append(append(b, name...), labels...), ' ')
	return append(strconv.AppendInt(b, v, 10), '\n')
}

// floatSample appends `name{labels} v` in the shortest round-trip form,
// the way Prometheus clients render floats.
func floatSample(b []byte, name, labels string, v float64) []byte {
	b = append(append(append(b, name...), labels...), ' ')
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// labelPair renders `label="value"` with the value escaped.
func labelPair(label, value string) string { return label + `="` + PromLabel(value) + `"` }

// vecSamples appends one sample per label value, sorted by value.
func vecSamples(b []byte, name, label string, values map[string]int64) []byte {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = intSample(b, name, "{"+labelPair(label, k)+"}", values[k])
	}
	return b
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 that moves both ways.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Counter registers and returns a counter family.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, c.Value)
	return c
}

// Gauge registers and returns a gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, g.Value)
	return g
}

// CounterFunc registers a counter whose value f reads at render time,
// for counts another structure already keeps.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.register(name, help, "counter", "", func(b []byte) []byte {
		return intSample(b, name, "", f())
	})
}

// GaugeFunc registers a gauge read at render time, so it can never
// drift from the structure it describes.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.register(name, help, "gauge", "", func(b []byte) []byte {
		return intSample(b, name, "", f())
	})
}

// RatioFunc registers a float gauge read at render time.
func (r *Registry) RatioFunc(name, help string, f func() float64) {
	r.register(name, help, "gauge", "", func(b []byte) []byte {
		return floatSample(b, name, "", f())
	})
}

// GaugeVecFunc registers a one-label gauge family read at render time:
// f returns the level per label value, rendered sorted by value.
func (r *Registry) GaugeVecFunc(name, help, label string, f func() map[string]int64) {
	r.register(name, help, "gauge", label, func(b []byte) []byte {
		return vecSamples(b, name, label, f())
	})
}

// CounterVec is a counter family partitioned by one label. A label
// value appears in the exposition from its first increment on.
type CounterVec struct {
	mu sync.Mutex
	m  map[string]int64
}

// CounterVec registers and returns a one-label counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{m: map[string]int64{}}
	r.register(name, help, "counter", label, func(b []byte) []byte {
		v.mu.Lock()
		defer v.mu.Unlock()
		return vecSamples(b, name, label, v.m)
	})
	return v
}

// Add adds n to the counter of one label value.
func (v *CounterVec) Add(value string, n int64) {
	v.mu.Lock()
	v.m[value] += n
	v.mu.Unlock()
}

// Inc adds one to the counter of one label value.
func (v *CounterVec) Inc(value string) { v.Add(value, 1) }

// Value returns the count of one label value.
func (v *CounterVec) Value(value string) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m[value]
}

// HistogramVec is a fixed-bucket histogram family partitioned by one
// label over a value set fixed at registration. Children render in
// declaration order, each once it has an observation.
type HistogramVec struct {
	values  []string
	buckets []float64

	mu   sync.Mutex
	hist []histogram // one per label value
}

// histogram is one child: per-bucket (non-cumulative) counts, the last
// slot counting observations above every bound.
type histogram struct {
	counts []int64
	sum    float64
	count  int64
}

// HistogramVec registers and returns a histogram family over the label
// values, with the given ascending bucket upper bounds (+Inf implied).
func (r *Registry) HistogramVec(name, help, label string, values []string, buckets []float64) *HistogramVec {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: metric %s: buckets not ascending", name))
	}
	h := &HistogramVec{values: values, buckets: buckets, hist: make([]histogram, len(values))}
	for i := range h.hist {
		h.hist[i].counts = make([]int64, len(buckets)+1)
	}
	r.register(name, help, "histogram", label, func(b []byte) []byte {
		h.mu.Lock()
		defer h.mu.Unlock()
		for i, c := range h.hist {
			if c.count == 0 {
				continue
			}
			lp := labelPair(label, h.values[i])
			var cum int64
			for j, ub := range h.buckets {
				cum += c.counts[j]
				b = intSample(b, name+"_bucket", "{"+lp+`,le="`+strconv.FormatFloat(ub, 'g', -1, 64)+`"}`, cum)
			}
			b = intSample(b, name+"_bucket", "{"+lp+`,le="+Inf"}`, c.count)
			b = floatSample(b, name+"_sum", "{"+lp+"}", c.sum)
			b = intSample(b, name+"_count", "{"+lp+"}", c.count)
		}
		return b
	})
	return h
}

// Observe records v under a label value declared at registration; an
// undeclared value is a programming error and panics. A value on a
// bucket bound belongs to that bucket (`le` is less-or-equal).
func (h *HistogramVec) Observe(value string, v float64) {
	i := 0
	for i < len(h.values) && h.values[i] != value {
		i++
	}
	if i == len(h.values) {
		panic(fmt.Sprintf("obs: histogram label value %q not declared", value))
	}
	h.mu.Lock()
	c := &h.hist[i]
	c.counts[sort.SearchFloat64s(h.buckets, v)]++
	c.sum += v
	c.count++
	h.mu.Unlock()
}
