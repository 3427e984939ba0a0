package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	snnmap "repro"
	"repro/internal/obs"
)

// JobState is the lifecycle of one mapping job.
type JobState string

const (
	// JobQueued — accepted, waiting for a worker (or already answered
	// from the result cache, in which case the job is born done).
	JobQueued JobState = "queued"
	// JobRunning — executing on a worker.
	JobRunning JobState = "running"
	// JobDone — finished with a result table.
	JobDone JobState = "done"
	// JobFailed — finished with an error.
	JobFailed JobState = "failed"
	// JobCanceled — canceled before completing (client DELETE or drain
	// deadline).
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// job is the store-internal record of one submission. All mutable fields
// are guarded by the owning store's mutex.
type job struct {
	id       string
	spec     snnmap.JobSpec
	hash     string
	state    JobState
	cached   bool
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	table    *snnmap.Table
	events   *eventLog
	cancel   context.CancelFunc
	// trace is set once at creation (nil when tracing is disabled) and
	// immutable thereafter, so readers need no store lock.
	trace *jobTrace
}

// JobStatus is the wire shape of a job on every status-bearing endpoint
// (submission response, GET /v1/jobs/{id}, list entries).
type JobStatus struct {
	ID string `json:"id"`
	// Hash is the content address of the canonical spec — equal hashes
	// mean byte-identical results.
	Hash string `json:"hash"`
	// Spec is the normalized job spec (defaults spelled out).
	Spec  snnmap.JobSpec `json:"spec"`
	State JobState       `json:"state"`
	// Cached marks jobs answered from the result cache without running.
	Cached   bool       `json:"cached,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Result, when the job is done, is the path serving the table.
	Result string `json:"result,omitempty"`
}

// jobStore is the in-memory job registry: insertion-ordered, mutex-
// guarded, with monotonic IDs. A production deployment would bound or
// expire it; for this daemon completed jobs are the experiment record
// and stay addressable for their lifetime.
type jobStore struct {
	mu    sync.Mutex
	seq   int
	jobs  map[string]*job
	order []string
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job)}
}

func (s *jobStore) create(spec snnmap.JobSpec, hash string, now time.Time, tr *jobTrace) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &job{
		id:      fmt.Sprintf("job-%06d", s.seq),
		spec:    spec,
		hash:    hash,
		state:   JobQueued,
		created: now,
		events:  newEventLog(),
		trace:   tr,
	}
	if tr != nil {
		tr.root.SetAttr(obs.String("job_id", j.id), obs.String("hash", hash))
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}

// setCached flags a job as answered from the result cache.
func (s *jobStore) setCached(j *job) {
	s.mu.Lock()
	j.cached = true
	s.mu.Unlock()
}

func (s *jobStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// status renders a consistent snapshot of one job.
func (s *jobStore) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *jobStore) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:      j.id,
		Hash:    j.hash,
		Spec:    j.spec,
		State:   j.state,
		Cached:  j.cached,
		Created: j.created,
		Error:   j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == JobDone {
		st.Result = "/v1/jobs/" + j.id + "/result"
	}
	return st
}

// list snapshots every job in submission order.
func (s *jobStore) list() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// markRunning transitions queued→running; it fails when the job was
// canceled while queued (the worker then skips it).
func (s *jobStore) markRunning(j *job, now time.Time, cancel context.CancelFunc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = now
	j.cancel = cancel
	return true
}

// finish transitions a job to its terminal state and returns the status
// snapshot for the closing event.
func (s *jobStore) finish(j *job, state JobState, table *snnmap.Table, errMsg string, now time.Time) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.state = state
	j.table = table
	j.errMsg = errMsg
	j.finished = now
	j.cancel = nil
	return s.statusLocked(j)
}

// markCanceled handles DELETE: a queued job turns canceled directly, a
// running job gets its context canceled (the worker finishes the
// transition), a terminal job is left untouched.
func (s *jobStore) markCanceled(j *job, now time.Time) (JobState, bool) {
	s.mu.Lock()
	if j.state == JobQueued {
		j.state = JobCanceled
		j.finished = now
		s.mu.Unlock()
		return JobCanceled, true
	}
	if j.state == JobRunning {
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return JobRunning, true
	}
	state := j.state
	s.mu.Unlock()
	return state, false
}

// result returns the job's table when done, with the state and error
// message snapshotted under the same lock.
func (s *jobStore) result(j *job) (*snnmap.Table, JobState, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.table, j.state, j.errMsg
}
