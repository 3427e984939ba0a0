package fleet

import (
	"bufio"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/service"
)

// metricNameRE is the fleet's naming convention: the snnmapd_ prefix
// followed by lower-snake-case. Prometheus technically allows more, but
// a mixed-case or unprefixed family here is a typo, not a choice.
var metricNameRE = regexp.MustCompile(`^snnmapd_[a-z0-9_]+$`)

// lintExposition parses one text-exposition render and enforces the
// repo-wide conventions: every family name matches snnmapd_ snake_case,
// every family declares exactly one # TYPE (and a # HELP), every sample
// line belongs to a declared family, and TYPE kinds are legal.
func lintExposition(t *testing.T, origin, body string) {
	t.Helper()
	types := map[string]string{}
	helps := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("%s: malformed TYPE line %q", origin, line)
				continue
			}
			name, kind := fields[2], fields[3]
			if !metricNameRE.MatchString(name) {
				t.Errorf("%s: family %q violates snnmapd_ snake_case", origin, name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("%s: family %q declares # TYPE twice", origin, name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("%s: family %q has unknown kind %q", origin, name, kind)
			}
			types[name] = kind
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Errorf("%s: HELP line %q lacks a description", origin, line)
				continue
			}
			helps[fields[2]] = true
		case strings.HasPrefix(line, "#"):
			t.Errorf("%s: unknown comment line %q", origin, line)
		default:
			// Sample line: name up to '{' or ' '.
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			if !metricNameRE.MatchString(name) {
				t.Errorf("%s: sample %q violates snnmapd_ snake_case", origin, name)
				continue
			}
			// Histogram children belong to the parent family's TYPE.
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name {
					if _, ok := types[base]; ok && types[base] == "histogram" {
						family = base
					}
					break
				}
			}
			if _, ok := types[family]; !ok {
				t.Errorf("%s: sample %q has no # TYPE declaration", origin, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name := range types {
		if !helps[name] {
			t.Errorf("%s: family %q has # TYPE but no # HELP", origin, name)
		}
	}
	if len(types) == 0 {
		t.Fatalf("%s: render declared no families at all", origin)
	}
}

// TestMetricNameLint renders every Prometheus writer the fleet ships —
// the worker service's /metrics (with warm-pass extras attached), the
// router's /metrics — and lints the combined exposition. This test
// lives in the fleet package because fleet imports service; it is the
// one place both renderers are reachable without an import cycle.
func TestMetricNameLint(t *testing.T) {
	warmer := NewWarmer(WarmerConfig{Self: "http://127.0.0.1:1", Peers: nil})
	svc := service.New(service.Config{Workers: 1})
	defer svc.Kill()
	warmer.RegisterMetrics(svc.Metrics())

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("worker /metrics = %d", rec.Code)
	}
	lintExposition(t, "worker", rec.Body.String())

	workers := startWorkers(t, 1, func(int) service.Config { return service.Config{Workers: 1} }, false)
	_, base := startRouter(t, workers)
	resp, body := getBody(t, base+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("router /metrics = %d", resp.StatusCode)
	}
	lintExposition(t, "router", string(body))
}
