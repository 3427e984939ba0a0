package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeRoundTrip(t *testing.T) {
	rec := NewRecorder(64)
	root := rec.StartRoot("job")
	root.SetAttr(String("job_id", "job-000001"))

	a := root.StartChild("queue.wait")
	a.End()
	b := root.StartChild("run")
	c := b.StartChild("simulate")
	c.AddEvent("spill", String("node", "http://w1"))
	c.End()
	b.End()
	root.End()

	tid := root.Context().TraceID
	tree := BuildTree(tid.String(), rec.Nodes(tid))
	if tree.Spans != 4 {
		t.Fatalf("spans = %d, want 4", tree.Spans)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "job" {
		t.Fatalf("roots = %+v, want single job root", tree.Roots)
	}
	names := map[string]bool{}
	for _, n := range tree.Flatten() {
		names[n.Name] = true
	}
	for _, want := range []string{"job", "queue.wait", "run", "simulate"} {
		if !names[want] {
			t.Errorf("missing span %q in tree", want)
		}
	}
	// The event survives into the tree.
	var sim *SpanNode
	for _, n := range tree.Roots[0].Children {
		if n.Name == "run" && len(n.Children) == 1 {
			sim = n.Children[0]
		}
	}
	if sim == nil || len(sim.Events) != 1 || sim.Events[0].Name != "spill" {
		t.Fatalf("simulate span lost its event: %+v", sim)
	}
	if sim.Events[0].Attrs["node"] != "http://w1" {
		t.Fatalf("event attrs = %v", sim.Events[0].Attrs)
	}
	// JSON round-trip keeps the shape.
	raw, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != tree.TraceID || back.Spans != 4 {
		t.Fatalf("round-trip tree = %+v", back)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	rec := NewRecorder(8)
	sp := rec.StartRoot("proxy")
	h := http.Header{}
	Inject(h, sp)
	v := h.Get(TraceparentHeader)
	if len(v) != 55 || !strings.HasPrefix(v, "00-") || !strings.HasSuffix(v, "-01") {
		t.Fatalf("traceparent = %q", v)
	}
	sc, ok := Extract(h)
	if !ok {
		t.Fatalf("extract failed for %q", v)
	}
	if sc != sp.Context() {
		t.Fatalf("extract = %+v, want %+v", sc, sp.Context())
	}
	// A remote child continues the trace.
	child := rec.StartSpan("job", sc)
	if child.Context().TraceID != sp.Context().TraceID {
		t.Fatalf("remote child changed trace id")
	}
	if child.parent != sp.Context().SpanID {
		t.Fatalf("remote child parent = %v, want %v", child.parent, sp.Context().SpanID)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short-1234-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // bad version
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333x-01", // bad hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // non-hex flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", // uppercase span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A", // uppercase flags
	}
	for _, v := range bad {
		if _, err := ParseTraceparent(v); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed value", v)
		}
	}
	good := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	sc, err := ParseTraceparent(good)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", good, err)
	}
	if sc.Traceparent() != good {
		t.Fatalf("re-render = %q, want %q", sc.Traceparent(), good)
	}
}

// FuzzTraceparent pins the header parser on arbitrary input: it never
// panics, and every accepted value re-renders byte-identical except for
// the flags, which always render as the sampled 01.
func FuzzTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-0000000000000000-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-short-1234-01",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, err := ParseTraceparent(v)
		if err != nil {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context", v)
		}
		if got, want := sc.Traceparent(), v[:53]+"01"; got != want {
			t.Fatalf("ParseTraceparent(%q) re-renders as %q, want %q", v, got, want)
		}
	})
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	sp := rec.StartRoot("x")
	if sp != nil {
		t.Fatalf("nil recorder produced a span")
	}
	// Every method must be a no-op on nil.
	sp.SetAttr(String("k", "v"))
	sp.AddEvent("e")
	if c := sp.StartChild("child"); c != nil {
		t.Fatalf("nil span produced a child")
	}
	sp.End()
	if got := sp.TraceIDString(); got != "" {
		t.Fatalf("nil span trace id = %q", got)
	}
	ctx, child := StartChild(context.Background(), "y")
	if child != nil || FromContext(ctx) != nil {
		t.Fatalf("StartChild without a parent span must no-op")
	}
	AddEvent(ctx, "nothing") // must not panic
	Inject(http.Header{}, nil)
	if rec.Len() != 0 || rec.Nodes(TraceID{}) != nil {
		t.Fatalf("nil recorder reported contents")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	var first TraceID
	for i := 0; i < 8; i++ {
		sp := rec.StartRoot("s")
		if i == 0 {
			first = sp.Context().TraceID
		}
		sp.End()
	}
	if rec.Len() != 4 {
		t.Fatalf("len = %d, want 4 (bounded ring)", rec.Len())
	}
	if got := rec.Nodes(first); len(got) != 0 {
		t.Fatalf("evicted trace still indexed: %d nodes", len(got))
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(128)
	root := rec.StartRoot("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c := root.StartChild("c")
				c.SetAttr(Int("j", j))
				c.AddEvent("tick")
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if rec.Len() != 128 {
		t.Fatalf("len = %d, want full ring 128", rec.Len())
	}
}

func TestBuildTreeOrphansAndDuplicates(t *testing.T) {
	now := time.Now()
	nodes := []*SpanNode{
		{Name: "child", SpanID: "aa", Parent: "gone", Start: now.Add(time.Millisecond), End: now.Add(2 * time.Millisecond)},
		{Name: "root", SpanID: "bb", Start: now, End: now.Add(3 * time.Millisecond)},
		{Name: "dup", SpanID: "aa", Parent: "bb", Start: now, End: now},
	}
	tree := BuildTree("t", nodes)
	if tree.Spans != 2 {
		t.Fatalf("spans = %d, want 2 (duplicate dropped)", tree.Spans)
	}
	if len(tree.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 (orphan promoted)", len(tree.Roots))
	}
	if tree.Roots[0].Name != "root" {
		t.Fatalf("roots unsorted: first = %q", tree.Roots[0].Name)
	}
}

func TestLogHandlerStampsTraceContext(t *testing.T) {
	rec := NewRecorder(8)
	sp := rec.StartRoot("job")
	defer sp.End()

	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(&buf, slog.LevelInfo))
	logger.InfoContext(ContextWith(context.Background(), sp), "hello", "job_id", "job-000001")
	line := buf.String()
	if !strings.Contains(line, "trace_id="+sp.Context().TraceID.String()) {
		t.Fatalf("log line missing trace_id: %s", line)
	}
	if !strings.Contains(line, "span_id="+sp.Context().SpanID.String()) {
		t.Fatalf("log line missing span_id: %s", line)
	}

	buf.Reset()
	logger.Info("no ctx")
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("span-less log line grew a trace_id: %s", buf.String())
	}
}

func TestWriteText(t *testing.T) {
	rec := NewRecorder(8)
	root := rec.StartRoot("job")
	c := root.StartChild("simulate")
	c.SetAttr(Int("workers", 4))
	c.AddEvent("spill")
	c.End()
	root.End()
	tid := root.Context().TraceID
	var buf bytes.Buffer
	BuildTree(tid.String(), rec.Nodes(tid)).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"trace " + tid.String(), "job", "simulate", "workers=4", "! spill"} {
		if !strings.Contains(out, want) {
			t.Errorf("text render missing %q:\n%s", want, out)
		}
	}
}
