package obs

import (
	"context"
	"io"
	"log/slog"
)

// LogHandler is a slog.Handler that stamps every record with the
// trace_id/span_id of the span carried by the log call's context, so a
// structured log line can always be joined against the trace that
// produced it.
type LogHandler struct {
	inner slog.Handler
}

// NewLogHandler builds a text-format handler writing to w at the given
// level, wrapped with trace-context stamping. The binaries install it
// as the slog default.
func NewLogHandler(w io.Writer, level slog.Leveler) *LogHandler {
	return &LogHandler{inner: slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})}
}

// Enabled implements slog.Handler.
func (h *LogHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler, appending trace_id and span_id when
// the context carries a span.
func (h *LogHandler) Handle(ctx context.Context, r slog.Record) error {
	if sp := FromContext(ctx); sp != nil {
		sc := sp.Context()
		r.AddAttrs(
			slog.String("trace_id", sc.TraceID.String()),
			slog.String("span_id", sc.SpanID.String()),
		)
	}
	return h.inner.Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (h *LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &LogHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h *LogHandler) WithGroup(name string) slog.Handler {
	return &LogHandler{inner: h.inner.WithGroup(name)}
}
