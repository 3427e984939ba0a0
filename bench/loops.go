package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	snnmap "repro"
	"repro/internal/service"
)

// jobRecord is what the client saw of one job.
type jobRecord struct {
	Index int
	Spec  snnmap.JobSpec
	Hash  string
	// Due is when an open-loop job was due; Sent when its submission
	// started; Done when its result CSV arrived (zero when it failed).
	Due, Sent, Done time.Time
	// Detected is when the client first saw the job terminal.
	Detected time.Time
	Status   service.JobStatus // last status seen
	CSV      []byte
	Err      error
	// root is the job's client.job span (0 untraced).
	root int64
}

// latency is the client-observed job time: from due (open loop) or send
// (closed loop) to the CSV in hand.
func (r *jobRecord) latency() time.Duration {
	start := r.Sent
	if !r.Due.IsZero() {
		start = r.Due
	}
	return r.Done.Sub(start)
}

func (r *jobRecord) ok() bool { return r.Err == nil && !r.Done.IsZero() }

// recordOpenJob records the client.job span of a finished open-loop job
// and its service spans.
func recordOpenJob(tr *tracer, r *jobRecord) {
	end := r.Done
	if end.IsZero() {
		end = time.Now()
	}
	tr.add(span{ID: r.root, Job: r.Index, Name: "client.job", Start: r.Due.UnixNano(), End: end.UnixNano()})
	addServiceSpans(tr, r)
}

// addServiceSpans records the worker-side life of a job from its status
// timestamps — admission-queue wait and execution — under the job's root.
// Cached jobs were born done and have neither.
func addServiceSpans(tr *tracer, r *jobRecord) {
	st := r.Status
	if tr == nil || st.Started == nil || st.Finished == nil {
		return
	}
	tr.add(span{ID: tr.newID(), Parent: r.root, Job: -1, Name: "service.queue", Start: st.Created.UnixNano(), End: st.Started.UnixNano()})
	tr.add(span{ID: tr.newID(), Parent: r.root, Job: -1, Name: "service.exec", Start: st.Started.UnixNano(), End: st.Finished.UnixNano()})
}

// pollGap is the watcher's minimum interval between status polls.
const pollGap = 2 * time.Millisecond

// runOpen drives the open loop: one connection submits each arrival at
// its due time, regardless of how earlier jobs fare; a second connection
// polls in-flight jobs round-robin, at most once per pollGap, and fetches
// each result when its job is done.
func runOpen(ctx context.Context, base string, arrivals []arrival, tr *tracer) []*jobRecord {
	records := make([]*jobRecord, len(arrivals))
	submitted := make(chan *jobRecord, len(arrivals)) // sized to the number of sends
	start := time.Now()
	go func() {
		defer close(submitted)
		c := newConn(base, tr)
		defer c.close()
		for i, a := range arrivals {
			r := &jobRecord{Index: i, Spec: a.Spec, Hash: a.Spec.Hash(), Due: start.Add(a.Due), root: tr.newID()}
			records[i] = r
			if wait := time.Until(r.Due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
				}
			}
			r.Sent = time.Now()
			r.Status, r.Err = c.submit(ctx, a.Spec, r.root)
			submitted <- r
		}
	}()

	w := newConn(base, tr)
	defer w.close()
	var inflight []*jobRecord
	var lastPoll time.Time
	finish := func(r *jobRecord) {
		r.Detected = time.Now()
		if r.Status.State != service.JobDone {
			r.Err = fmt.Errorf("job %s ended %s: %s", r.Status.ID, r.Status.State, r.Status.Error)
		} else if r.CSV, r.Err = w.result(ctx, r.Status.ID, r.root); r.Err == nil {
			r.Done = time.Now()
		}
		recordOpenJob(tr, r)
	}
	open := true
	for open || len(inflight) > 0 {
		if len(inflight) == 0 {
			r, ok := <-submitted
			if !ok {
				open = false
				continue
			}
			inflight = append(inflight, r)
		}
		// Take every submission already made, without blocking.
	drain:
		for open {
			select {
			case r, ok := <-submitted:
				if !ok {
					open = false
					break drain
				}
				inflight = append(inflight, r)
			default:
				break drain
			}
		}
		r := inflight[0]
		inflight = inflight[1:]
		switch {
		case r.Err != nil:
			recordOpenJob(tr, r)
			continue
		case terminal(r.Status.State):
			// Born done: answered by a cache tier at submission.
			finish(r)
			continue
		}
		if wait := pollGap - time.Since(lastPoll); wait > 0 {
			time.Sleep(wait)
		}
		lastPoll = time.Now()
		st, err := w.status(ctx, r.Status.ID, r.root)
		if err != nil {
			r.Err = err
			recordOpenJob(tr, r)
			continue
		}
		r.Status = st
		if terminal(st.State) {
			finish(r)
		} else {
			inflight = append(inflight, r)
		}
	}
	return records
}

func terminal(s service.JobState) bool {
	return s == service.JobDone || s == service.JobFailed || s == service.JobCanceled
}

// runClosed drives the closed loop: closedClients clients, one connection
// each, each submitting its next job only after the previous one's result
// arrived, until the phase ends. A client submits, waits for the terminal
// event on the job's event stream, then fetches the CSV.
func runClosed(ctx context.Context, base string, plan closedPlan, d time.Duration, tr *tracer) []*jobRecord {
	end := time.Now().Add(d)
	var (
		mu      sync.Mutex
		records []*jobRecord
		wg      sync.WaitGroup
	)
	for client := 0; client < closedClients; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			c := newConn(base, tr)
			defer c.close()
			for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
				index, spec := plan.job(client, i)
				r := &jobRecord{Index: index, Spec: spec, Hash: spec.Hash(), root: tr.newID()}
				r.Sent = time.Now()
				r.Err = closedJob(ctx, c, r)
				tr.add(span{ID: r.root, Job: r.Index, Name: "client.job", Start: r.Sent.UnixNano(), End: time.Now().UnixNano()})
				mu.Lock()
				records = append(records, r)
				mu.Unlock()
			}
		}(client)
	}
	wg.Wait()
	return records
}

func closedJob(ctx context.Context, c *conn, r *jobRecord) error {
	st, err := c.submit(ctx, r.Spec, r.root)
	if err != nil {
		return err
	}
	r.Status = st
	if st.State != service.JobDone {
		state, err := c.await(ctx, st.ID, r.root)
		if err != nil {
			return err
		}
		r.Status.State = state
		if state != service.JobDone {
			return fmt.Errorf("job %s ended %s", st.ID, state)
		}
	}
	r.Detected = time.Now()
	if r.CSV, err = c.result(ctx, st.ID, r.root); err != nil {
		return err
	}
	r.Done = time.Now()
	return nil
}
