package service

import (
	"net/http"
	"time"

	snnmap "repro"
	"repro/internal/obs"
)

// jobTrace bundles the spans of one job's lifecycle on this worker.
// A nil *jobTrace (tracing disabled) no-ops everywhere, mirroring the
// obs package's nil-span contract.
type jobTrace struct {
	// root is the worker-side job span: child of the router's proxy span
	// when the submission carried a traceparent header, a fresh trace
	// root otherwise. Open from admission to the terminal state.
	root *obs.Span
	// queue is the admission-queue wait span, open while the job sits in
	// the fair queue.
	queue *obs.Span
}

// traceID returns the job's trace ID, zero when tracing is off.
func (t *jobTrace) traceID() obs.TraceID {
	if t == nil {
		return obs.TraceID{}
	}
	return t.root.Context().TraceID
}

// rootSpan returns the job root span (nil-safe).
func (t *jobTrace) rootSpan() *obs.Span {
	if t == nil {
		return nil
	}
	return t.root
}

// startQueued opens the queue-wait span at admission.
func (t *jobTrace) startQueued() {
	if t == nil {
		return
	}
	t.queue = t.root.StartChild("queue.wait")
}

// dequeued closes the queue-wait span when a worker picks the job up.
func (t *jobTrace) dequeued() {
	if t == nil {
		return
	}
	t.queue.End()
	t.queue = nil
}

// finish stamps the terminal state (and error, if any) on the root span
// and commits it to the recorder.
func (t *jobTrace) finish(state JobState, errMsg string) {
	if t == nil {
		return
	}
	t.queue.End() // canceled-while-queued jobs still close their wait span
	t.root.SetAttr(obs.String("state", string(state)))
	if errMsg != "" {
		t.root.SetAttr(obs.String("error", errMsg))
	}
	t.root.End()
}

// startJobTrace opens the worker-side job root span for a submission,
// continuing the remote trace when the request carries a traceparent
// header (the fleet router's proxy span). Returns nil when tracing is
// disabled.
func (s *Server) startJobTrace(h http.Header, spec snnmap.JobSpec) *jobTrace {
	if s.tracer == nil {
		return nil
	}
	parent, _ := obs.Extract(h)
	root := s.tracer.StartSpan("job", parent)
	root.SetAttr(obs.String("app", spec.App), obs.String("arch", spec.Arch))
	return &jobTrace{root: root}
}

// childJobTrace opens a job root span under an in-process parent — the
// batch span, so every job of one batch hangs off it as a sibling.
func childJobTrace(parent *obs.Span, spec snnmap.JobSpec) *jobTrace {
	if parent == nil {
		return nil
	}
	root := parent.StartChild("job")
	root.SetAttr(obs.String("app", spec.App), obs.String("arch", spec.Arch))
	return &jobTrace{root: root}
}

// stageSpan converts one pipeline stage completion into a span under
// parent. The span's duration IS the event's elapsed time — the same
// value fed to the per-stage histogram — so the trace and /metrics can
// never disagree about where the time went.
func stageSpan(parent *obs.Span, ev snnmap.StageEvent) {
	if parent == nil {
		return
	}
	end := time.Now()
	sp := parent.StartChildAt(ev.Stage.String(), end.Add(-ev.Elapsed))
	switch {
	case ev.Partition != nil:
		sp.SetAttr(obs.Int64("cost", ev.Partition.Cost))
	case ev.NoC != nil:
		sp.SetAttr(
			obs.Int64("injected", ev.NoC.Stats.Injected),
			obs.Int64("delivered", ev.NoC.Stats.Delivered),
			obs.Int64("cycles", ev.NoC.Stats.Cycles),
		)
	case ev.Metrics != nil:
		sp.SetAttr(
			obs.Int64("delivered", ev.Metrics.Delivered),
			obs.Float("avg_latency_cycles", ev.Metrics.AvgLatencyCycles),
			obs.Float("isi_avg_cycles", ev.Metrics.ISIAvgCycles),
		)
	}
	sp.EndAt(end)
}

// handleTrace serves the job's recorded span tree as JSON. The tree is
// whatever the ring still holds: complete for recent jobs, partial for
// running ones (spans commit when they end), empty when evicted.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if s.tracer == nil || j.trace == nil {
		WriteError(w, http.StatusNotFound, "no trace recorded for job %s (tracing disabled)", j.id)
		return
	}
	tid := j.trace.traceID()
	WriteJSON(w, http.StatusOK, obs.BuildTree(tid.String(), s.tracer.Nodes(tid)))
}
