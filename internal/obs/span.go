// Package obs is the fleet's observability kernel: a stdlib-only
// distributed-tracing and structured-logging toolkit shared by the
// router, the workers, and the local CLI.
//
// The model is deliberately small — a Span carries a W3C-compatible
// trace/span ID pair, a parent link, attributes, and point-in-time
// events; finished spans land in a bounded ring Recorder from which a
// per-trace span tree can be rebuilt and served as JSON. Propagation
// across process hops uses the `traceparent` header, so the router's
// proxy span and the worker's job span stitch into one tree.
//
// Everything is nil-safe: a nil *Recorder hands out nil *Spans, and
// every Span method no-ops on a nil receiver. Disabling tracing is
// therefore free on the hot path — no allocation, no locking, just a
// nil check.
//
// Registry is the metrics half: each Prometheus family is declared once
// on it, name-checked at registration, and rendered by the one
// text-exposition writer in the repository.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace identifier shared by every span of
// one distributed operation.
type TraceID [16]byte

// SpanID is the 8-byte W3C identifier of a single span.
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the span ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace id %q: want 32 hex digits", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	return t, nil
}

// ParseSpanID decodes a 16-hex-digit span ID.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 {
		return id, fmt.Errorf("obs: span id %q: want 16 hex digits", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, fmt.Errorf("obs: span id %q: %w", s, err)
	}
	return id, nil
}

// newTraceID returns a fresh random trace ID. crypto/rand failure is
// unrecoverable enough that we fall back to a constant-marked ID rather
// than plumb an error through every span start.
func newTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil {
		t[0] = 0xff
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	if _, err := rand.Read(s[:]); err != nil {
		s[0] = 0xff
	}
	return s
}

// SpanContext is the propagated identity of a span: enough to parent a
// remote child without holding the span itself.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are set, per the W3C rules.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value annotation on a span or event. Values are
// pre-rendered strings: the wire format is JSON either way, and string
// values keep the recorder allocation-free of interface boxing.
type Attr struct {
	Key   string
	Value string
}

// String builds a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer-valued attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds an integer-valued attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean-valued attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Float builds a float-valued attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)} }

// DurationAttr builds a duration attribute rendered in Go syntax.
func DurationAttr(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// Event is a point-in-time annotation inside a span (a fault injection,
// a retry, a redirect).
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"-"`
}

// Span is one timed operation in a trace. Spans are created through a
// Recorder (or a parent span) and are recorded when End is called.
// A nil *Span is a valid no-op span: every method returns immediately.
type Span struct {
	rec    *Recorder
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	ended  bool
}

// Context returns the span's propagated identity (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceIDString returns the hex trace ID, or "" for nil spans.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.mu.Unlock()
}

// AddEvent records a point-in-time event on the span.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.events = append(s.events, Event{Name: name, Time: time.Now(), Attrs: attrs})
	}
	s.mu.Unlock()
}

// StartChild starts a child span beginning now.
func (s *Span) StartChild(name string) *Span {
	return s.StartChildAt(name, time.Now())
}

// StartChildAt starts a child span with an explicit start time — used
// when the duration is known only after the fact (pipeline stage events
// report elapsed time at completion).
func (s *Span) StartChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		rec:    s.rec,
		sc:     SpanContext{TraceID: s.sc.TraceID, SpanID: newSpanID()},
		parent: s.sc.SpanID,
		name:   name,
		start:  start,
	}
}

// End finishes the span now and commits it to the recorder.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt finishes the span at an explicit time. Ending twice is a no-op.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	node := &SpanNode{
		Name:   s.name,
		SpanID: s.sc.SpanID.String(),
		Parent: parentString(s.parent),
		Start:  s.start,
		End:    end,
		Attrs:  attrMap(s.attrs),
		Events: eventNodes(s.events),
	}
	s.mu.Unlock()
	if s.rec != nil {
		s.rec.record(s.sc.TraceID, node)
	}
}

func parentString(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

func eventNodes(events []Event) []EventNode {
	if len(events) == 0 {
		return nil
	}
	out := make([]EventNode, len(events))
	for i, e := range events {
		out[i] = EventNode{Name: e.Name, Time: e.Time, Attrs: attrMap(e.Attrs)}
	}
	return out
}

// Recorder keeps the most recent finished spans in a bounded ring,
// indexed by trace ID. A nil *Recorder is a valid disabled tracer:
// every Start returns a nil (no-op) span.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	ring    []ringEntry
	head    int // next eviction / write slot once full
	n       int
	byTrace map[TraceID][]*SpanNode
}

type ringEntry struct {
	trace TraceID
	node  *SpanNode
}

// DefaultCap is the span ring size used when NewRecorder is given a
// non-positive capacity.
const DefaultCap = 4096

// NewRecorder builds a recorder holding at most cap finished spans
// (DefaultCap when cap <= 0).
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Recorder{
		cap:     cap,
		ring:    make([]ringEntry, cap),
		byTrace: make(map[TraceID][]*SpanNode),
	}
}

// StartRoot begins a new trace and returns its root span.
func (r *Recorder) StartRoot(name string) *Span {
	return r.StartSpan(name, SpanContext{})
}

// StartSpan begins a span under the given (possibly remote) parent.
// An invalid parent starts a fresh trace, so callers can pass whatever
// Extract returned without checking.
func (r *Recorder) StartSpan(name string, parent SpanContext) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{rec: r, name: name, start: time.Now()}
	if parent.Valid() {
		sp.sc = SpanContext{TraceID: parent.TraceID, SpanID: newSpanID()}
		sp.parent = parent.SpanID
	} else {
		sp.sc = SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}
	}
	return sp
}

// record commits a finished span, evicting the oldest when full.
func (r *Recorder) record(trace TraceID, node *SpanNode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == r.cap {
		old := r.ring[r.head]
		r.dropLocked(old.trace, old.node)
	} else {
		r.n++
	}
	r.ring[r.head] = ringEntry{trace: trace, node: node}
	r.head = (r.head + 1) % r.cap
	r.byTrace[trace] = append(r.byTrace[trace], node)
}

func (r *Recorder) dropLocked(trace TraceID, node *SpanNode) {
	nodes := r.byTrace[trace]
	for i, n := range nodes {
		if n == node {
			nodes = append(nodes[:i], nodes[i+1:]...)
			break
		}
	}
	if len(nodes) == 0 {
		delete(r.byTrace, trace)
	} else {
		r.byTrace[trace] = nodes
	}
}

// Len reports the number of spans currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Nodes returns copies of the recorded spans of one trace, flat (no
// children links), in recording order. The copies are safe to hand to
// BuildTree, which mutates Children.
func (r *Recorder) Nodes(trace TraceID) []*SpanNode {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	nodes := r.byTrace[trace]
	out := make([]*SpanNode, len(nodes))
	for i, n := range nodes {
		c := *n
		c.Children = nil
		out[i] = &c
	}
	return out
}
