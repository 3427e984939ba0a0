package resilience

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// TestDeadlineHeaderRoundTrip pins the wire format: stamp from a
// context, parse back to the same instant (millisecond precision).
func TestDeadlineHeaderRoundTrip(t *testing.T) {
	dl := time.Now().Add(3 * time.Second).Truncate(time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "http://x/", nil)
	SetDeadlineHeader(req, ctx)
	got, ok := ParseDeadline(req)
	if !ok || !got.Equal(dl) {
		t.Fatalf("round trip = %v ok=%v, want %v", got, ok, dl)
	}
}

// TestSetDeadlineHeaderNoDeadline pins that budget-less requests stay
// header-less.
func TestSetDeadlineHeaderNoDeadline(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "http://x/", nil)
	SetDeadlineHeader(req, context.Background())
	if req.Header.Get(DeadlineHeader) != "" {
		t.Fatal("header set without a deadline")
	}
}

// TestWithDeadlineAppliesBudget pins the middleware: the handler's
// context carries the client's deadline.
func TestWithDeadlineAppliesBudget(t *testing.T) {
	dl := time.Now().Add(5 * time.Second)
	var seen time.Time
	var had bool
	h := WithDeadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen, had = r.Context().Deadline()
	}))
	req := httptest.NewRequest(http.MethodGet, "http://x/", nil)
	req.Header.Set(DeadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
	h.ServeHTTP(httptest.NewRecorder(), req)
	if !had {
		t.Fatal("handler context has no deadline")
	}
	if diff := seen.Sub(dl); diff > time.Millisecond || diff < -time.Millisecond {
		t.Fatalf("handler deadline %v, want %v", seen, dl)
	}
}

// TestWithDeadlineExpired pins the fast-fail: a budget spent on arrival
// is a 504 without invoking the handler.
func TestWithDeadlineExpired(t *testing.T) {
	called := false
	h := WithDeadline(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { called = true }))
	req := httptest.NewRequest(http.MethodGet, "http://x/", nil)
	req.Header.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if called {
		t.Fatal("handler ran past an expired deadline")
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline = %d, want 504", rec.Code)
	}
}

// TestWithDeadlineNeverExtends pins that a header cannot widen an
// existing tighter server-side deadline.
func TestWithDeadlineNeverExtends(t *testing.T) {
	tight := time.Now().Add(time.Second)
	var seen time.Time
	h := WithDeadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen, _ = r.Context().Deadline()
	}))
	req := httptest.NewRequest(http.MethodGet, "http://x/", nil)
	req.Header.Set(DeadlineHeader, strconv.FormatInt(time.Now().Add(time.Hour).UnixMilli(), 10))
	ctx, cancel := context.WithDeadline(req.Context(), tight)
	defer cancel()
	h.ServeHTTP(httptest.NewRecorder(), req.WithContext(ctx))
	if !seen.Equal(tight) {
		t.Fatalf("loose header widened the deadline to %v (tight was %v)", seen, tight)
	}
}

// TestWithDeadlineMalformedIgnored pins advisory semantics: garbage in
// the header must not reject the request.
func TestWithDeadlineMalformedIgnored(t *testing.T) {
	called := false
	h := WithDeadline(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { called = true }))
	req := httptest.NewRequest(http.MethodGet, "http://x/", nil)
	req.Header.Set(DeadlineHeader, "not-a-timestamp")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if !called {
		t.Fatal("malformed deadline header rejected the request")
	}
}

// FuzzDeadlineHeader fuzzes the X-Deadline header, a client input:
//
//   - ParseDeadline and WithDeadline never panic, whatever the value;
//   - an accepted value is time.UnixMilli of the parsed integer;
//   - WithDeadline never extends an earlier context deadline
//     (existingMs, when non-zero, sets one that many ms from now);
//   - it answers 504 only when the deadline is not after now, and
//     always when a spent deadline is the tightest one.
func FuzzDeadlineHeader(f *testing.F) {
	soon := strconv.FormatInt(time.Now().Add(5*time.Second).UnixMilli(), 10)
	spent := strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10)
	for _, seed := range []struct {
		v          string
		existingMs int64
	}{
		{"1000", 0}, {soon, 0}, {soon, 100}, {soon, -100}, {spent, 0}, {spent, 100}, {"1000", 100},
		{"", 0}, {"not-a-timestamp", 0}, {"+42", 0}, {"-1", 0}, {" 1", 0},
		{"9223372036854775807", 0}, {"-9223372036854775808", 50},
		{"99999999999999999999", 0},
	} {
		f.Add(seed.v, seed.existingMs)
	}
	f.Fuzz(func(t *testing.T, v string, existingMs int64) {
		req := httptest.NewRequest(http.MethodGet, "http://x/", nil)
		req.Header.Set(DeadlineHeader, v)
		dl, ok := ParseDeadline(req)
		ms, err := strconv.ParseInt(v, 10, 64)
		if ok != (err == nil) || ok && !dl.Equal(time.UnixMilli(ms)) {
			t.Fatalf("ParseDeadline(%q) = %v, %v; strconv says %d, %v", v, dl, ok, ms, err)
		}

		var existing time.Time
		if existingMs != 0 {
			existing = time.Now().Add(time.Duration(existingMs%(1<<40)) * time.Millisecond)
			ctx, cancel := context.WithDeadline(req.Context(), existing)
			defer cancel()
			req = req.WithContext(ctx)
		}
		var seen time.Time
		var called, had bool
		h := WithDeadline(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			called = true
			seen, had = r.Context().Deadline()
		}))
		rec := httptest.NewRecorder()
		before := time.Now()
		h.ServeHTTP(rec, req)
		after := time.Now()

		if rec.Code == http.StatusGatewayTimeout {
			if called || !ok || dl.After(after) {
				t.Fatalf("X-Deadline %q answered 504 (handler ran %v) with deadline %v at %v", v, called, dl, after)
			}
			return
		}
		if !called {
			t.Fatalf("X-Deadline %q: handler skipped with status %d", v, rec.Code)
		}
		if ok && !dl.After(before) && (existing.IsZero() || !existing.Before(dl)) {
			t.Fatalf("X-Deadline %q: spent deadline %v was handled", v, dl)
		}
		if !existing.IsZero() && (!had || seen.After(existing)) {
			t.Fatalf("X-Deadline %q extended the context deadline %v to %v", v, existing, seen)
		}
		if ok && (!had || seen.After(dl)) {
			t.Fatalf("X-Deadline %q: handler deadline %v is past the header's %v", v, seen, dl)
		}
	})
}
