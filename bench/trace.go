package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Name is "<layer>.<operation>", with the layer named after the
// module that does the work. Spans of one job share Job (set on the root,
// inherited through Parent when the trace is analysed).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    int    `json:"job"` // -1 when the span is not a job's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Node and Code describe an RPC: the base URL it went to and the HTTP
	// status it returned.
	Node string `json:"node,omitempty"`
	Code int    `json:"code,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs leave tracing off.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanHeader carries the caller's span ID across an HTTP hop, so the
// server-side span can name its parent.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// operation names a request by the job API route it hits.
func operation(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasPrefix(p, "/v1/cache/"):
		return "cache"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	case p == "/healthz":
		return "probe"
	}
	return "other"
}

// handler wraps a server's handler so each request is a span of the
// given layer, parented by the span named in the request's spanHeader.
// The span ID rides the request context, so RPCs the handler makes (with
// a timing client) become its children. Nil tracer: h unchanged.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := t.newID()
		start := time.Now().UnixNano()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
		t.add(span{ID: id, Parent: parent, Job: -1, Name: layer + "." + operation(r), Start: start, End: time.Now().UnixNano()})
	})
}

// client returns an HTTP client whose requests are spans of the given
// layer, or nil (the caller's default client) when tracing is off.
func (t *tracer) client(layer string, timeout time.Duration) *http.Client {
	if t == nil {
		return nil
	}
	return &http.Client{Timeout: timeout, Transport: &timingTransport{t: t, layer: layer, base: http.DefaultTransport}}
}

// timingTransport records every round trip, from sending the request to
// closing the response body, as a span parented by the span in the
// request's context.
type timingTransport struct {
	t     *tracer
	layer string
	base  http.RoundTripper
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tt.t.newID()
	s := span{ID: id, Parent: spanFrom(req.Context()), Job: -1, Name: tt.layer + ".rpc", Start: time.Now().UnixNano()}
	if u := req.URL; u != nil {
		s.Node = u.Scheme + "://" + u.Host
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.End = time.Now().UnixNano()
		tt.t.add(s)
		return nil, err
	}
	s.Code = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = time.Now().UnixNano()
		b.t.add(b.s)
	})
	return err
}

// traceIndex is a recorded trace arranged for analysis.
type traceIndex struct {
	byID     map[int64]*span
	children map[int64][]*span
	roots    map[int]*span // job → its client.job span
}

func indexTrace(spans []span) *traceIndex {
	ix := &traceIndex{byID: map[int64]*span{}, children: map[int64][]*span{}, roots: map[int]*span{}}
	for i := range spans {
		s := &spans[i]
		ix.byID[s.ID] = s
		if s.Job >= 0 {
			ix.roots[s.Job] = s
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// tree lists a span and all its descendants with their depths.
func (ix *traceIndex) tree(root *span) (spans []*span, depth map[int64]int) {
	depth = map[int64]int{root.ID: 0}
	stack := []*span{root}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		spans = append(spans, s)
		for _, c := range ix.children[s.ID] {
			depth[c.ID] = depth[s.ID] + 1
			stack = append(stack, c)
		}
	}
	return spans, depth
}

// selfTimes splits the time covered by a job's span tree among its
// spans: each instant belongs to the deepest span covering it, and to
// the latest-started one when siblings overlap (a status poll running
// while the job executes). The self times of a tree therefore sum to
// the time its spans cover, which is the job's client-observed time
// unless a child span reaches outside its parent.
func (ix *traceIndex) selfTimes(root *span) map[int64]time.Duration {
	spans, depth := ix.tree(root)
	var cuts []int64
	for _, s := range spans {
		if s.End > s.Start {
			cuts = append(cuts, s.Start, s.End)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	self := map[int64]time.Duration{}
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi == lo {
			continue
		}
		var owner *span
		for _, s := range spans {
			if s.Start > lo || s.End < hi {
				continue
			}
			if owner == nil || depth[s.ID] > depth[owner.ID] ||
				(depth[s.ID] == depth[owner.ID] && s.Start > owner.Start) {
				owner = s
			}
		}
		if owner != nil {
			self[owner.ID] += time.Duration(hi - lo)
		}
	}
	return self
}
