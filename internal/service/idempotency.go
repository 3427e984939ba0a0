package service

import (
	"crypto/sha256"
	"strings"
	"sync"
)

// IdempotencyKeyHeader carries a submit request's idempotency key. The
// fleet router stamps it with (route ID or batch unit, target node), so
// a retried submit RPC — the first attempt's response was lost after
// this node accepted — collapses onto the already-created jobs instead
// of creating a second set; POST /v1/jobs and POST /v1/batches both
// honour it. Content addressing already makes duplicate *execution*
// harmless (identical spec, identical table); the key additionally
// dedupes the job records themselves, keeping the router's routes
// pointed at exactly one remote ID per job.
const IdempotencyKeyHeader = "X-Idempotency-Key"

// idemStore is the bounded key→submission memory behind the header:
// recent submissions only, because a key's useful life is one retry
// window. The LRU bound means a key can age out and a very late replay
// create duplicate jobs — acceptable, since execution stays idempotent
// either way.
type idemStore struct {
	mu      sync.Mutex
	entries *lru[idemEntry]
}

// idemEntry is what a key remembers of the submission it admitted: a
// digest of its content hashes in input order and one job ID per unique
// hash. A duplicate costs nothing: replay expands it again from the
// resubmission's own hashes, which the digest pins to the same order.
type idemEntry struct {
	digest [sha256.Size]byte
	ids    []string
}

func hashesDigest(hashes []string) [sha256.Size]byte {
	return sha256.Sum256([]byte(strings.Join(hashes, "\n")))
}

// record remembers the submission admitted under key, its statuses sts
// in input order. It replaces an earlier entry — replay turned that key
// away for other content or departed jobs — so a lost-response retry of
// this submission replays it in turn.
func (st *idemStore) record(key string, hashes []string, sts []JobStatus) {
	e := idemEntry{digest: hashesDigest(hashes)}
	seen := make(map[string]bool, len(sts))
	for _, js := range sts {
		if !seen[js.ID] {
			seen[js.ID] = true
			e.ids = append(e.ids, js.ID)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.entries.remove(key)
	st.entries.add(key, e)
}

// replay answers a keyed resubmission from the jobs its first attempt
// created, status for status in input order, a duplicate repeating its
// job's status. It returns nil — admit afresh — when the key is empty or
// unknown, the recorded content differs from hashes, or a recorded job
// has left the store: a key reused for other content (a client's, or a
// restarted router's) is a new submission, never another job's answer.
func (s *Server) replay(key string, hashes []string) []JobStatus {
	if key == "" {
		return nil
	}
	s.idem.mu.Lock()
	e, ok := s.idem.entries.get(key)
	s.idem.mu.Unlock()
	if !ok || e.digest != hashesDigest(hashes) {
		return nil
	}
	byHash := make(map[string]JobStatus, len(e.ids))
	for _, id := range e.ids {
		j, ok := s.store.get(id)
		if !ok {
			return nil
		}
		byHash[j.hash] = s.store.status(j)
	}
	sts := make([]JobStatus, len(hashes))
	for i, h := range hashes {
		sts[i] = byHash[h] // present: the digest pins the same hashes
	}
	return sts
}
