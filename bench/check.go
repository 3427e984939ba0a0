package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	snnmap "repro"
	"repro/internal/partition"
)

// checkRecords verifies a fleet workload's outputs and returns one line
// per problem found. Every job must end done with a CSV; jobs with one
// content address must return byte-identical CSVs; when sameShape is set
// (closed loops, whose jobs differ only in a field their techniques
// ignore) so must jobs with one session key; and every row must show
// injected == delivered, since all specs use per-synapse AER.
func checkRecords(records []*jobRecord, sameShape bool) []string {
	var problems []string
	byHash := map[string][]byte{}
	byKey := map[string][]byte{}
	for _, r := range records {
		if !r.ok() {
			problems = append(problems, fmt.Sprintf("job %d (%s): %v", r.Index, r.Hash[:12], r.Err))
			continue
		}
		if prev, ok := byHash[r.Hash]; ok && !bytes.Equal(prev, r.CSV) {
			problems = append(problems, fmt.Sprintf("job %d: CSV differs from an earlier job with content address %s", r.Index, r.Hash[:12]))
		}
		byHash[r.Hash] = r.CSV
		if sameShape {
			key := r.Spec.SessionKey()
			if prev, ok := byKey[key]; ok && !bytes.Equal(prev, r.CSV) {
				problems = append(problems, fmt.Sprintf("job %d: CSV differs from an earlier job of shape %s", r.Index, key))
			}
			byKey[key] = r.CSV
		}
		if err := checkConservation(r.CSV); err != nil {
			problems = append(problems, fmt.Sprintf("job %d: %v", r.Index, err))
		}
	}
	return problems
}

// checkConservation parses a report CSV and requires at least one row,
// each with injected == delivered.
func checkConservation(csv []byte) error {
	t, err := snnmap.ReadTableCSV(bytes.NewReader(csv))
	if err != nil {
		return err
	}
	in, del := t.Column("injected"), t.Column("delivered")
	if in < 0 || del < 0 {
		return errors.New("result lacks injected/delivered columns")
	}
	if len(t.Rows) == 0 {
		return errors.New("result has no rows")
	}
	for i, row := range t.Rows {
		if row[in] != row[del] {
			return fmt.Errorf("row %d: injected %v != delivered %v", i, row[in], row[del])
		}
	}
	return nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestPairs is the SHA-256 over sorted "key sha256(output)" lines.
func digestPairs(outputs map[string][]byte) string {
	lines := make([]string, 0, len(outputs))
	for k, out := range outputs {
		lines = append(lines, k+" "+sha(out))
	}
	sort.Strings(lines)
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return sha(b.Bytes())
}

// recordsDigest is a fleet workload's outputs_digest. Open-loop jobs are
// keyed by content address: the plan fixes the set. Closed-loop jobs are
// keyed by session key, because how many jobs run depends on speed while
// the CSV of each shape does not.
func recordsDigest(records []*jobRecord, byShape bool) string {
	outputs := map[string][]byte{}
	for _, r := range records {
		if !r.ok() {
			continue
		}
		key := r.Hash
		if byShape {
			key = r.Spec.SessionKey()
		}
		outputs[key] = r.CSV
	}
	return digestPairs(outputs)
}

// committedDigests holds the outputs_digest of reference runs, keyed by
// digestKey. A run whose key is listed must reproduce the digest.
//
//go:embed testdata/digests.json
var committedDigestsJSON []byte

func committedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(committedDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return m, nil
}

func digestKey(workload string, seed int64, seconds float64) string {
	return fmt.Sprintf("%s:seed=%d:seconds=%g", workload, seed, seconds)
}

// checkDigest compares a run's digest with the committed one, if any.
func checkDigest(committed map[string]string, key, got string) []string {
	if want, ok := committed[key]; ok && want != got {
		return []string{fmt.Sprintf("outputs_digest %s differs from the committed %s for %s", got, want, key)}
	}
	return nil
}

// sampleRecords picks the jobs to re-run in-process: the first done job
// of each session key, then further done jobs, in index order, up to
// limit. The plan fixes indices, so a seed fixes the sample.
func sampleRecords(records []*jobRecord, limit int) []*jobRecord {
	done := make([]*jobRecord, 0, len(records))
	for _, r := range records {
		if r.ok() {
			done = append(done, r)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Index < done[j].Index })
	seen := map[string]bool{}
	var first, rest []*jobRecord
	for _, r := range done {
		if key := r.Spec.SessionKey(); !seen[key] {
			seen[key] = true
			first = append(first, r)
		} else {
			rest = append(rest, r)
		}
	}
	out := append(first, rest...)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// stageSample is the per-layer measurement of one in-process re-run.
type stageSample struct {
	build, total                        time.Duration
	partition, place, simulate, analyze time.Duration
	encode                              time.Duration
	delivered, cycles                   int64
	allocs, allocBytes                  uint64
}

// rerun executes a spec in-process the way a worker does — a session
// built by snnmap.NewSessionPipeline with streaming delivery and one
// worker, each technique (or each re-seeded PSO of a sweep) through
// Pipeline.RunObserved — and returns the CSV with the stage timings.
func rerun(ctx context.Context, spec snnmap.JobSpec) ([]byte, stageSample, error) {
	var s stageSample
	t0 := time.Now()
	pl, err := snnmap.NewSessionPipeline(spec, snnmap.WithStreamingDelivery(true), snnmap.WithWorkers(1))
	if err != nil {
		return nil, s, err
	}
	s.build = time.Since(t0)
	pts, err := spec.Partitioners()
	if err != nil {
		return nil, s, err
	}
	if len(spec.TechSeeds) > 0 {
		seeded, ok := pts[0].(partition.Seeded)
		if !ok {
			return nil, s, fmt.Errorf("technique %s cannot be re-seeded", spec.Techniques[0])
		}
		pts = pts[:0]
		for _, seed := range spec.TechSeeds {
			pts = append(pts, seeded.Reseed(seed))
		}
	}
	observer := snnmap.ObserverFunc(func(ev snnmap.StageEvent) {
		switch ev.Stage {
		case snnmap.StagePartition:
			s.partition += ev.Elapsed
		case snnmap.StagePlace:
			s.place += ev.Elapsed
		case snnmap.StageSimulate:
			s.simulate += ev.Elapsed
			s.delivered += ev.NoC.Stats.Delivered
			s.cycles += ev.NoC.Stats.Cycles
		case snnmap.StageAnalyze:
			s.analyze += ev.Elapsed
		}
	})
	objs0, bytes0 := allocCounters()
	t1 := time.Now()
	reports := make([]*snnmap.Report, 0, len(pts))
	for _, pt := range pts {
		rep, err := pl.RunObserved(ctx, pt, observer)
		if err != nil {
			return nil, s, err
		}
		reports = append(reports, rep)
	}
	s.total = time.Since(t1)
	objs1, bytes1 := allocCounters()
	s.allocs, s.allocBytes = objs1-objs0, bytes1-bytes0
	t2 := time.Now()
	table, err := snnmap.NewReportTable(reports...)
	if err != nil {
		return nil, s, err
	}
	var b bytes.Buffer
	if err := table.WriteCSV(&b); err != nil {
		return nil, s, err
	}
	s.encode = time.Since(t2)
	return b.Bytes(), s, nil
}

// checkRerun re-runs the sampled jobs in-process and requires each CSV to
// match the fleet's byte for byte.
func checkRerun(ctx context.Context, sample []*jobRecord) ([]stageSample, []string) {
	var (
		stages   []stageSample
		problems []string
	)
	for _, r := range sample {
		csv, st, err := rerun(ctx, r.Spec)
		if err != nil {
			problems = append(problems, fmt.Sprintf("re-run of job %d: %v", r.Index, err))
			continue
		}
		if !bytes.Equal(csv, r.CSV) {
			problems = append(problems, fmt.Sprintf("re-run of job %d (%s): CSV differs from the fleet's", r.Index, r.Hash[:12]))
		}
		stages = append(stages, st)
	}
	return stages, problems
}
