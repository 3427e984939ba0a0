package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	snnmap "repro"
)

// reportCSV renders a one-row report table whose injected and delivered
// counts are given.
func reportCSV(t *testing.T, injected, delivered int64) []byte {
	t.Helper()
	rep := &snnmap.Report{AppName: "gen:modular:n=16", Technique: "greedy", ArchName: "tree"}
	rep.NoC.Injected, rep.NoC.Delivered = injected, delivered
	table, err := snnmap.NewReportTable(rep)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := table.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func doneRecord(index int, hash, app string, csv []byte) *jobRecord {
	return &jobRecord{Index: index, Hash: hash, Spec: snnmap.JobSpec{App: app}, CSV: csv, Sent: time.Now(), Done: time.Now()}
}

func TestCheckRecordsCatchesWrongOutputs(t *testing.T) {
	good := reportCSV(t, 5, 5)
	flipped := bytes.Replace(good, []byte(",5,5,"), []byte(",5,6,"), 1)
	if bytes.Equal(good, flipped) {
		t.Fatal("test CSV does not hold the injected,delivered cells")
	}
	const h = "0123456789abcdef"
	for _, tc := range []struct {
		name      string
		records   []*jobRecord
		sameShape bool
		want      string
	}{
		{"clean", []*jobRecord{doneRecord(0, h, "a", good), doneRecord(1, h, "a", good)}, true, ""},
		{"flipped delivered cell", []*jobRecord{doneRecord(0, h, "a", flipped)}, false, "injected 5 != delivered 6"},
		{"one address, two CSVs", []*jobRecord{doneRecord(0, h, "a", good), doneRecord(1, h, "a", reportCSV(t, 7, 7))}, false, "content address"},
		{"one shape, two CSVs", []*jobRecord{doneRecord(0, h, "a", good), doneRecord(1, "fedcba9876543210", "a", reportCSV(t, 7, 7))}, true, "shape"},
		{"unfinished job", []*jobRecord{{Index: 0, Hash: h, Err: errString("HTTP 500")}}, false, "HTTP 500"},
	} {
		problems := checkRecords(tc.records, tc.sameShape)
		switch {
		case tc.want == "" && len(problems) > 0:
			t.Errorf("%s: unexpected problems %v", tc.name, problems)
		case tc.want != "" && !strings.Contains(strings.Join(problems, "\n"), tc.want):
			t.Errorf("%s: problems %v, want one mentioning %q", tc.name, problems, tc.want)
		}
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestCheckDigest(t *testing.T) {
	committed := map[string]string{digestKey("fleet-mix", 1, 20): "abc"}
	if p := checkDigest(committed, digestKey("fleet-mix", 1, 20), "abc"); len(p) != 0 {
		t.Errorf("matching digest reported %v", p)
	}
	if p := checkDigest(committed, digestKey("fleet-mix", 1, 20), "abd"); len(p) != 1 {
		t.Errorf("mismatched digest reported %v, want one problem", p)
	}
	if p := checkDigest(committed, digestKey("fleet-mix", 3, 20), "abd"); len(p) != 0 {
		t.Errorf("uncommitted key reported %v", p)
	}
}

func TestCommittedDigestsParse(t *testing.T) {
	if _, err := committedDigests(); err != nil {
		t.Fatal(err)
	}
}

// TestMaskedCSVMasksUnstableColumns runs each experiment with unstable
// columns and requires that every named column exists, so a renamed
// column cannot leave the mask silently doing nothing, and reads zero.
func TestMaskedCSVMasksUnstableColumns(t *testing.T) {
	for name, cols := range unstableColumns {
		exps, err := lookupExperiments([]string{name})
		if err != nil {
			t.Fatal(err)
		}
		table, err := exps[0].Run(context.Background(), snnmap.NewPipeline, snnmap.ExpOptions{Quick: true, Seed: 11, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := maskedCSV(table)
		if err != nil {
			t.Fatal(err)
		}
		masked, err := snnmap.ReadTableCSV(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range cols {
			c := -1
			for i, tc := range masked.Columns {
				if tc.Name == col {
					c = i
				}
			}
			if c < 0 {
				t.Errorf("%s has no column %q", name, col)
				continue
			}
			for r, row := range masked.Rows {
				if row[c] != 0.0 {
					t.Errorf("%s row %d: %s = %v after masking", name, r, col, row[c])
				}
			}
		}
	}
}

func TestSelfTimesPartitionTheJob(t *testing.T) {
	// client.job [0,100] holds submit [0,10] → fleet.submit [2,8], and an
	// exec [20,90] overlapped by a poll [50,60] → fleet.status [52,58].
	spans := []span{
		{ID: 1, Job: 0, Name: "client.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Job: -1, Name: "client.submit", Start: 0, End: 10},
		{ID: 3, Parent: 2, Job: -1, Name: "fleet.submit", Start: 2, End: 8},
		{ID: 4, Parent: 1, Job: -1, Name: "service.exec", Start: 20, End: 90},
		{ID: 5, Parent: 1, Job: -1, Name: "client.status", Start: 50, End: 60},
		{ID: 6, Parent: 5, Job: -1, Name: "fleet.status", Start: 52, End: 58},
	}
	ix := indexTrace(spans)
	self := ix.selfTimes(ix.roots[0])
	want := map[int64]time.Duration{1: 20, 2: 4, 3: 6, 4: 60, 5: 4, 6: 6}
	var sum time.Duration
	for id, d := range want {
		if self[id] != d {
			t.Errorf("span %d: self %v, want %v", id, self[id], d)
		}
		sum += self[id]
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the job's 100", sum)
	}
	layers := layerSelfTimes(spans)
	for layer, ns := range map[string]float64{"uncovered": 20, "client": 8, "fleet": 12, "service": 60} {
		if got := layers[layer] * 1e6; math.Abs(got-ns) > 1e-9 {
			t.Errorf("layer %s: self %v ns, want %v", layer, got, ns)
		}
	}

	// The same job as a fleet run's record: 20 of its 100 ns lie in no
	// request or worker span.
	snap := fleetSnapshot{executed: []int64{0, 0}}
	m := fleetLayers([]*jobRecord{doneRecord(0, "0123456789abcdef", "a", nil)}, spans,
		[]string{"http://a", "http://b"}, snap, snap, nil)
	if got := m["client.uncovered_share"]; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("client.uncovered_share = %v, want 0.2", got)
	}
}
