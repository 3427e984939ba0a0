package snnmap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/hardware"
	"repro/internal/partition"
)

// JobSpec is one mapping job as a value: the application and architecture
// registry specs, the partitioning techniques to sweep, and every option
// that influences the result. It is the request body of the mapping
// service (cmd/snnmapd) and the unit of content addressing — the whole
// pipeline is deterministic end to end for a fixed spec (pinned by the
// scenario invariant harness), so two jobs with equal canonical specs
// produce byte-identical result tables and may share one cached result.
//
// Zero values select the CLI defaults (seed 1, per-synapse AER,
// app-sized architecture, 100×100 PSO), so the canonical form of a
// sparse request equals the canonical form of its fully spelled-out
// equivalent.
//
// Execution knobs that cannot change the result stay out of the spec by
// design: sweep parallelism (WithWorkers) is bit-identical at every
// worker count, so it is a server deployment setting
// (service.Config.PipelineWorkers) — encoding it here would split the
// content address of jobs whose tables are byte-equal.
type JobSpec struct {
	// App is an application registry spec ("HW",
	// "gen:smallworld:n=512,seed=7", "synth:layers=2,width=200", ...).
	App string `json:"app"`
	// Arch is an architecture registry name (default "tree").
	Arch string `json:"arch,omitempty"`
	// Techniques are partitioner registry names, swept in order
	// (default ["pso"]).
	Techniques []string `json:"techniques,omitempty"`
	// Seed drives every stochastic component: application
	// characterization and technique seeding (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DurationMs overrides the characterization run length (0 keeps the
	// application default).
	DurationMs int64 `json:"duration_ms,omitempty"`
	// AER is the packetization mode label: "per-synapse" (default),
	// "per-crossbar" or "multicast".
	AER string `json:"aer,omitempty"`
	// Crossbars and CrossbarSize override the architecture sizing
	// (0 keeps the family's app-derived default).
	Crossbars    int `json:"crossbars,omitempty"`
	CrossbarSize int `json:"crossbar_size,omitempty"`
	// SwarmSize and Iterations shape the stochastic techniques
	// (default 100 each, the CLI defaults).
	SwarmSize  int `json:"swarm,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	// TechSeeds, when non-empty, turns the job into a seed sweep: the
	// (single, reseedable) technique is re-seeded per entry and the
	// seeds run through Pipeline.RunSeeds on the job's warm session —
	// one report row per seed, in seed order. The app characterization
	// still uses Seed; TechSeeds only reseeds the technique, exactly
	// like RunSeeds. The field extends the canonical form (and therefore
	// the content address) only when set, so plain jobs hash exactly as
	// before.
	TechSeeds []int64 `json:"tech_seeds,omitempty"`
}

// Normalize validates the spec against the registries and fills every
// defaulted field with its canonical value, so equal jobs normalize to
// equal structs: technique names are trimmed, the AER label is resolved
// and re-rendered, the application spec is canonicalized textually
// (legacy aliases collapse, parameter tails re-render in sorted key
// order — apps.CanonicalSpec), and the CLI defaults are applied. The
// application spec is validated textually (family known, parameter tail
// well-formed — apps.ValidateSpec) without building the app, so a job
// naming an unknown application rejects at submit time instead of
// surfacing later as a failed job; parameter values are still checked by
// the family's builder when the session is built.
func (s JobSpec) Normalize() (JobSpec, error) {
	s.App = strings.TrimSpace(s.App)
	if s.App == "" {
		return s, fmt.Errorf("snnmap: job spec without an application")
	}
	if err := apps.ValidateSpec(s.App); err != nil {
		return s, fmt.Errorf("snnmap: %w", err)
	}
	// Textual canonicalization (legacy aliases, parameter-tail order) so
	// equivalent app spellings share one content address and session key.
	s.App = apps.CanonicalSpec(s.App)
	s.Arch = strings.TrimSpace(s.Arch)
	if s.Arch == "" {
		s.Arch = "tree"
	}
	if _, ok := architectures.lookup(s.Arch); !ok {
		return s, fmt.Errorf("snnmap: unknown architecture %q (known: %s)", s.Arch, architectures.known())
	}
	if len(s.Techniques) == 0 {
		s.Techniques = []string{"pso"}
	}
	names := make([]string, len(s.Techniques))
	for i, name := range s.Techniques {
		name = strings.TrimSpace(name)
		if _, ok := partitioners.lookup(name); !ok {
			return s, fmt.Errorf("snnmap: unknown partitioner %q (known: %s)", name, partitioners.known())
		}
		names[i] = name
	}
	s.Techniques = names
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DurationMs < 0 {
		return s, fmt.Errorf("snnmap: negative duration_ms %d", s.DurationMs)
	}
	if s.Crossbars < 0 || s.CrossbarSize < 0 {
		return s, fmt.Errorf("snnmap: negative architecture sizing (%d crossbars × %d)", s.Crossbars, s.CrossbarSize)
	}
	mode, err := hardware.ParseAERMode(s.AER)
	if err != nil {
		return s, err
	}
	s.AER = mode.String()
	if s.SwarmSize == 0 {
		s.SwarmSize = 100
	}
	if s.Iterations == 0 {
		s.Iterations = 100
	}
	if s.SwarmSize < 0 || s.Iterations < 0 {
		return s, fmt.Errorf("snnmap: negative swarm shape (%d × %d)", s.SwarmSize, s.Iterations)
	}
	if len(s.TechSeeds) > 0 {
		if len(s.Techniques) != 1 {
			return s, fmt.Errorf("snnmap: tech_seeds requires exactly one technique (got %d)", len(s.Techniques))
		}
		// The sweep re-seeds the technique per entry, so it must be
		// reseedable; building the partitioner here is cheap (no app) and
		// turns a doomed submission into a 400 instead of a failed job.
		pts, err := s.Partitioners()
		if err != nil {
			return s, err
		}
		if _, ok := pts[0].(partition.Seeded); !ok {
			return s, fmt.Errorf("snnmap: technique %q is deterministic (does not implement partition.Seeded); tech_seeds would repeat one result", s.Techniques[0])
		}
	}
	return s, nil
}

// AERMode resolves the spec's packetization label. Call on normalized
// specs (Normalize guarantees the label parses).
func (s JobSpec) AERMode() (hardware.AERMode, error) {
	return hardware.ParseAERMode(s.AER)
}

// SessionKey identifies the warm session a job runs on: every field that
// feeds NewPipelineByName — the application spec with its
// characterization config and the sized architecture — and none of the
// per-run fields (techniques, swarm shape). Jobs with equal session keys
// can share one Pipeline: the techniques draw forked simulators from the
// session pool, and per-run state never leaks across jobs. Call on
// normalized specs.
func (s JobSpec) SessionKey() string {
	return fmt.Sprintf("app=%s|seed=%d|duration_ms=%d|arch=%s|crossbars=%d|size=%d|aer=%s",
		s.App, s.Seed, s.DurationMs, s.Arch, s.Crossbars, s.CrossbarSize, s.AER)
}

// Canonical renders the full spec as one deterministic line: the session
// key plus the per-run fields, every default spelled out. Equal canonical
// strings imply byte-identical result tables (the content-address
// contract the service's result cache relies on). Call on normalized
// specs.
//
// TechSeeds extends the line only when present, so every spec without a
// seed sweep keeps the exact canonical form (and hash) it had before the
// field existed.
func (s JobSpec) Canonical() string {
	c := fmt.Sprintf("%s|techniques=%s|swarm=%d|iterations=%d",
		s.SessionKey(), strings.Join(s.Techniques, ","), s.SwarmSize, s.Iterations)
	if len(s.TechSeeds) > 0 {
		parts := make([]string, len(s.TechSeeds))
		for i, seed := range s.TechSeeds {
			parts[i] = strconv.FormatInt(seed, 10)
		}
		c += "|tech_seeds=" + strings.Join(parts, ",")
	}
	return c
}

// Hash is the spec's content address: the hex SHA-256 of its canonical
// form.
func (s JobSpec) Hash() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(sum[:])
}

// NewSessionPipeline builds the warm session of a normalized spec —
// NewPipelineByName with the spec's session-key fields, plus any extra
// options (a server adds worker bounds).
func NewSessionPipeline(s JobSpec, opts ...Option) (*Pipeline, error) {
	mode, err := s.AERMode()
	if err != nil {
		return nil, err
	}
	return NewPipelineByName(
		s.App, AppConfig{Seed: s.Seed, DurationMs: s.DurationMs},
		s.Arch, ArchSpec{Crossbars: s.Crossbars, CrossbarSize: s.CrossbarSize, AER: mode},
		opts...)
}

// Partitioners materializes the spec's technique list from the
// partitioner registry. Call on normalized specs.
func (s JobSpec) Partitioners() ([]Partitioner, error) {
	out := make([]Partitioner, len(s.Techniques))
	for i, name := range s.Techniques {
		pt, err := NewPartitioner(name, PartitionerSpec{
			Seed:       s.Seed,
			SwarmSize:  s.SwarmSize,
			Iterations: s.Iterations,
			// One technique sweep per job: each PSO evaluates
			// sequentially so a job's cost is one worker, mirroring the
			// CLI's multi-technique budget split.
			Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		out[i] = pt
	}
	return out, nil
}
