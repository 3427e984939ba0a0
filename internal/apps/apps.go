// Package apps builds the SNN applications of the paper's evaluation
// (Table I): hello world, image smoothing, handwritten digit recognition
// (Diehl & Cook-style), heartbeat estimation (liquid state machine), and
// the synthetic m×n feedforward topologies of §V-A. Each builder constructs
// the network with internal/snn, runs a characterization simulation, and
// exports the spike graph consumed by the partitioning framework.
//
// Data substitutions: MNIST images are replaced by synthetic digit stroke
// bitmaps, and wearable ECG traces by a synthetic PQRST generator; both
// preserve the topology and the spike statistics the mapping problem
// depends on.
package apps

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// Config holds the common application-construction parameters.
type Config struct {
	// Seed drives every stochastic choice (connectivity, input trains).
	Seed int64
	// DurationMs is the characterization run length (default 1000 ms).
	DurationMs int64
}

func (c Config) withDefaults() Config {
	if c.DurationMs == 0 {
		c.DurationMs = 1000
	}
	return c
}

// App is a built application: its name and the spike graph of the trained,
// characterized network.
type App struct {
	// Name is the short identifier used across benchmarks (e.g. "HW").
	Name string
	// Description states topology and coding scheme as in Table I.
	Description string
	// Graph is the spike graph handed to the partitioner.
	Graph *graph.SpikeGraph
}

// Validate checks the app invariants.
func (a *App) Validate() error {
	if a == nil || a.Graph == nil {
		return errors.New("apps: nil app or graph")
	}
	if a.Name == "" {
		return errors.New("apps: empty name")
	}
	return a.Graph.Validate()
}

// Builder constructs one application. All builders in this package are of
// this shape so experiment harnesses can sweep them.
type Builder func(cfg Config) (*App, error)

// longAliases maps the legacy long spellings onto the Table I short
// names, shared by ByName resolution and CanonicalSpec.
var longAliases = map[string]string{
	"hello_world":          "HW",
	"image_smoothing":      "IS",
	"digit_recognition":    "HD",
	"heartbeat_estimation": "HE",
}

// ByName returns the builder of a realistic application by its Table I
// short name (HW, IS, HD, HE) or legacy long alias.
func ByName(name string) (Builder, error) {
	if short, ok := longAliases[name]; ok {
		name = short
	}
	switch name {
	case "HW":
		return HelloWorld, nil
	case "IS":
		return ImageSmoothing, nil
	case "HD":
		return DigitRecognition, nil
	case "HE":
		return func(cfg Config) (*App, error) {
			r, err := Heartbeat(HeartbeatConfig{Config: cfg})
			if err != nil {
				return nil, err
			}
			return r.App, nil
		}, nil
	default:
		return nil, fmt.Errorf("apps: unknown application %q", name)
	}
}

// RealisticNames lists the Table I applications in paper order.
func RealisticNames() []string { return []string{"HW", "IS", "HD", "HE"} }

// ---------------------------------------------------------------------------
// Application registry

// Factory builds a named application from the common config plus the raw
// "k=v,..." parameter tail of a registry spec. Fixed applications receive
// an empty tail and should reject a non-empty one; parameterized families
// (the synthetic topologies, the internal/genapp generators) parse it.
type Factory func(cfg Config, params string) (*App, error)

var (
	regMu    sync.RWMutex
	regOrder []string
	regItems = map[string]Factory{}
)

// Register adds a named application family to the registry. Registration
// panics on duplicates — a wiring bug, caught at init.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("apps: registering empty name or nil factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regItems[name]; dup {
		panic(fmt.Sprintf("apps: duplicate registry entry %q", name))
	}
	regItems[name] = f
	regOrder = append(regOrder, name)
}

// Names lists the registered application families in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

func lookupFactory(name string) (Factory, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := regItems[name]
	return f, ok
}

// Build resolves a registry spec and constructs the application. The spec
// is either an exact registry name ("HW", "gen:smallworld") or a registered
// prefix followed by a colon-separated parameter tail
// ("synth:layers=2,width=200", "gen:smallworld:n=512,seed=7"); parameters
// in the tail override the corresponding cfg fields. Legacy long names
// accepted by ByName keep working.
func Build(name string, cfg Config) (*App, error) {
	if f, ok := lookupFactory(name); ok {
		return f(cfg, "")
	}
	// Longest registered prefix wins: strip "k=v" tails at the last colon
	// until a registered family matches.
	for base := name; ; {
		i := strings.LastIndex(base, ":")
		if i < 0 {
			break
		}
		base = base[:i]
		if f, ok := lookupFactory(base); ok {
			return f(cfg, name[i+1:])
		}
	}
	if b, err := ByName(name); err == nil {
		return b(cfg)
	}
	known := Names()
	sort.Strings(known)
	return nil, fmt.Errorf("apps: unknown application %q (known: %v)", name, known)
}

// CanonicalSpec normalizes an application spec textually, without
// building it: legacy long aliases collapse onto their registry short
// names and "k=v" parameter tails are re-rendered in sorted key order,
// so the spellings Build treats as the same application share one
// canonical string. Content-addressed consumers (the mapping service's
// result cache and session pool) key on this form so reordered
// parameters or aliased names cannot duplicate cached work. Specs that
// omit a family default still differ from ones spelling it out —
// that only costs cache dedup, never correctness. Unknown specs pass
// through unchanged (Build rejects them later).
func CanonicalSpec(spec string) string {
	if short, ok := longAliases[spec]; ok {
		return short
	}
	if _, ok := lookupFactory(spec); ok {
		return spec
	}
	// Mirror Build's resolution: longest registered prefix, then the
	// parameter tail.
	for base := spec; ; {
		i := strings.LastIndex(base, ":")
		if i < 0 {
			return spec
		}
		base = base[:i]
		if _, ok := lookupFactory(base); ok {
			kv, err := ParseParams(spec[len(base)+1:])
			if err != nil {
				return spec // malformed tails surface via Build's error
			}
			if len(kv) == 0 {
				return base // "synth:" builds exactly like "synth"
			}
			keys := make([]string, 0, len(kv))
			for k := range kv {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for j, k := range keys {
				parts[j] = k + "=" + kv[k]
			}
			return base + ":" + strings.Join(parts, ",")
		}
	}
}

// ValidateSpec checks a registry spec textually, without building the
// application: the spec must resolve to a registered family (exact name,
// legacy alias, or registered prefix) and any parameter tail must parse.
// It is the cheap submit-time check a job API runs so an unknown
// application rejects with a 400 instead of surfacing later as a failed
// job; parameter *values* are still validated by the family's builder.
func ValidateSpec(spec string) error {
	if _, ok := longAliases[spec]; ok {
		return nil
	}
	if _, ok := lookupFactory(spec); ok {
		return nil
	}
	for base := spec; ; {
		i := strings.LastIndex(base, ":")
		if i < 0 {
			if _, err := ByName(spec); err == nil {
				return nil
			}
			known := Names()
			sort.Strings(known)
			return fmt.Errorf("apps: unknown application %q (known: %v)", spec, known)
		}
		base = base[:i]
		if _, ok := lookupFactory(base); ok {
			if _, err := ParseParams(spec[len(base)+1:]); err != nil {
				return err
			}
			return nil
		}
	}
}

// ParseParams splits a "k=v,k=v" parameter tail into a key→value map,
// rejecting malformed entries and duplicate keys. An empty tail yields an
// empty map.
func ParseParams(params string) (map[string]string, error) {
	out := map[string]string{}
	if params == "" {
		return out, nil
	}
	for _, kv := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("apps: malformed parameter %q (want key=value)", kv)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("apps: duplicate parameter %q", k)
		}
		out[k] = v
	}
	return out, nil
}

// fixed adapts a Builder to a Factory that rejects parameters.
func fixed(name string, b Builder) Factory {
	return func(cfg Config, params string) (*App, error) {
		if params != "" {
			return nil, fmt.Errorf("apps: application %q takes no parameters (got %q)", name, params)
		}
		return b(cfg)
	}
}

func init() {
	// The Table I applications under their short names, plus the §V-A
	// synthetic feedforward family with an explicit layers/width tail.
	for _, name := range RealisticNames() {
		b, err := ByName(name)
		if err != nil {
			panic(err)
		}
		Register(name, fixed(name, b))
	}
	Register("synth", func(cfg Config, params string) (*App, error) {
		kv, err := ParseParams(params)
		if err != nil {
			return nil, err
		}
		layers, width := 2, 200
		for k, v := range kv {
			var dst *int
			switch k {
			case "layers":
				dst = &layers
			case "width":
				dst = &width
			default:
				return nil, fmt.Errorf("apps: synth: unknown parameter %q (layers, width)", k)
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("apps: synth: parameter %s=%q: %w", k, v, err)
			}
			*dst = n
		}
		return Synthetic(cfg, layers, width)
	})
}
