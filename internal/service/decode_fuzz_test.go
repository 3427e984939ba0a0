package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzDecodeSubmission feeds arbitrary bodies to the submission decode
// shared by worker and router, in both the POST /v1/jobs (one spec) and
// POST /v1/batches ({"jobs": [...]}) shapes. It must never panic; a
// rejected body is a 400; and every accepted spec is a fixed point of
// Normalize whose canonical form and content address survive a second
// Normalize unchanged — the property the result cache and the ring's
// shard key rest on.
func FuzzDecodeSubmission(f *testing.F) {
	for _, seed := range []string{
		`{"app":"HW"}`,
		`{"app":" gen:modular:seed=5,n=48 ","arch":"mesh","techniques":[" greedy"],"aer":"multicast"}`,
		`{"app":"synth:layers=2,width=200","techniques":["pso"],"tech_seeds":[3,1,2],"swarm":4}`,
		`{"app":"HW","duration_ms":-1}`,
		`{"app":"HW","bogus":1}`,
		`{"jobs":[{"app":"HW"},{"app":"gen:smallworld:n=64"},{"app":"HW"}]}`,
		`{"jobs":[]}`,
		`{"jobs":[{"app":""}]}`,
		`{`,
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		path := "/v1/jobs"
		if batch {
			path = "/v1/batches"
		}
		rec := httptest.NewRecorder()
		specs, hashes, ok := DecodeSubmission(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)), batch)
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("rejected body answered %d, want 400", rec.Code)
			}
			return
		}
		if len(specs) == 0 || len(hashes) != len(specs) || (!batch && len(specs) != 1) {
			t.Fatalf("accepted %d specs with %d hashes (batch %v)", len(specs), len(hashes), batch)
		}
		for i, norm := range specs {
			again, err := norm.Normalize()
			if err != nil {
				t.Fatalf("spec %d: normalized spec rejected on a second Normalize: %v", i, err)
			}
			if !reflect.DeepEqual(again, norm) {
				t.Fatalf("spec %d: Normalize is not idempotent:\n%+v\n%+v", i, norm, again)
			}
			if again.Canonical() != norm.Canonical() || again.Hash() != hashes[i] {
				t.Fatalf("spec %d: canonical form or hash moved on a second Normalize", i)
			}
		}
	})
}
