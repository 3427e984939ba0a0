package resilience

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries a request's absolute deadline across process
// boundaries: Unix milliseconds, UTC. A client (or an upstream hop)
// sets it once; every hop parses it back into its request context and
// re-stamps outgoing RPCs from that context, so one time budget bounds
// the whole fan-out — proxy, retry backoffs, peer fetches — instead of
// each hop restarting the clock.
const DeadlineHeader = "X-Deadline"

// SetDeadlineHeader stamps req with the deadline of ctx. No deadline,
// no header.
func SetDeadlineHeader(req *http.Request, ctx context.Context) {
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(DeadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
	}
}

// ParseDeadline reads the X-Deadline header. ok is false when absent or
// malformed (a malformed header is ignored, not an error — deadline
// propagation is advisory and must never reject otherwise-valid work).
func ParseDeadline(r *http.Request) (time.Time, bool) {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return time.Time{}, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.UnixMilli(ms), true
}

// WithDeadline is the server-side half of deadline propagation: it
// parses X-Deadline into the request context so every handler (and
// every outgoing RPC stamped via SetDeadlineHeader) observes the
// client's remaining budget. An existing earlier context deadline is
// never extended. A deadline already expired on arrival is answered
// 504 without invoking the handler — the client's budget is spent, any
// work done now is waste.
func WithDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dl, ok := ParseDeadline(r)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		if existing, has := r.Context().Deadline(); has && existing.Before(dl) {
			next.ServeHTTP(w, r)
			return
		}
		if !dl.After(time.Now()) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGatewayTimeout)
			_, _ = w.Write([]byte("{\n  \"error\": \"deadline expired before handling\",\n  \"code\": \"deadline_exceeded\"\n}\n"))
			return
		}
		ctx, cancel := context.WithDeadline(r.Context(), dl)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
