package obs

import (
	"context"
	"fmt"
	"net/http"
)

type spanKey struct{}

// ContextWith returns ctx carrying sp. Carrying a nil span is fine and
// keeps the no-op behavior downstream.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartChild starts a child of the span in ctx and returns a context
// carrying it. With no span in ctx (tracing disabled) both returns are
// pass-throughs: the original ctx and a nil no-op span.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.StartChild(name)
	return ContextWith(ctx, sp), sp
}

// AddEvent records an event on the span carried by ctx, if any. This is
// the hook the router's spill walk uses: cheap when tracing is off,
// attached to the right span when it is on.
func AddEvent(ctx context.Context, name string, attrs ...Attr) {
	FromContext(ctx).AddEvent(name, attrs...)
}

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// Traceparent renders the span context as a version-00 traceparent
// value with the sampled flag set.
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", sc.TraceID, sc.SpanID)
}

// ParseTraceparent decodes a version-00 traceparent header value.
func ParseTraceparent(v string) (SpanContext, error) {
	// 00-<32 hex>-<16 hex>-<2 hex>
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, fmt.Errorf("obs: malformed traceparent %q", v)
	}
	if v[0] != '0' || v[1] != '0' {
		return SpanContext{}, fmt.Errorf("obs: unsupported traceparent version %q", v[:2])
	}
	tid, err := ParseTraceID(v[3:35])
	if err != nil {
		return SpanContext{}, err
	}
	sid, err := ParseSpanID(v[36:52])
	if err != nil {
		return SpanContext{}, err
	}
	var flags [1]byte
	if !decodeLowerHex(flags[:], v[53:]) {
		return SpanContext{}, fmt.Errorf("obs: traceparent flags %q: want 2 lowercase hex digits", v[53:])
	}
	sc := SpanContext{TraceID: tid, SpanID: sid}
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("obs: all-zero traceparent %q", v)
	}
	return sc, nil
}

// Inject stamps sp's identity onto the header set (no-op for nil spans).
func Inject(h http.Header, sp *Span) {
	if sp == nil {
		return
	}
	h.Set(TraceparentHeader, sp.Context().Traceparent())
}

// Extract reads a remote parent from the header set. ok is false when
// the header is absent or malformed; the zero SpanContext it returns
// then starts a fresh trace when handed to StartSpan.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	sc, err := ParseTraceparent(v)
	if err != nil {
		return SpanContext{}, false
	}
	return sc, true
}
