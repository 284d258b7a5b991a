package dist

import (
	"time"

	"op2hpx/internal/obs"
)

// Phase ordinals for the metrics/span tables. They name the stages of
// the owner-compute step pipeline on one rank: "issue" (posting the
// occurrence's own read-halo exchange), "hoist" (posting a later
// occurrence's exchange early), "interior" (compute overlapped with
// messages in flight), "halo" (waiting for + scattering read imports),
// "boundary" (compute gated on the halo).
const (
	phIssue = iota
	phHoist
	phInterior
	phHalo
	phBoundary
	nPhases
)

var phaseNames = [nPhases]string{"issue", "hoist", "interior", "halo", "boundary"}

// SetMetrics attaches a metrics registry to the engine; pass nil to
// disable. The engine exports its communication counters (halo messages
// sent, buffer-pool allocations and requests, plan builds) as
// func-backed series sampled at scrape time, and feeds a per-phase
// latency histogram family op2_dist_phase_seconds{phase=...} from every
// rank's pipeline stages. Attach before submitting work: rank workers
// read the observability configuration without synchronization, relying
// on the mailbox send for the happens-before edge.
func (e *Engine) SetMetrics(r *obs.Registry) {
	e.metrics = r
	e.obsOn = e.metrics != nil || e.tracer != nil
	if r == nil {
		return
	}
	r.CounterFunc("op2_halo_messages_total",
		"Halo messages posted to the transport.",
		func() float64 { return float64(e.tr.sent.Load()) })
	r.CounterFunc("op2_halo_buffers_allocated_total",
		"Message buffers allocated (buffer-pool misses).",
		func() float64 { return float64(e.BufferStats().Allocated) })
	r.CounterFunc("op2_halo_buffers_requested_total",
		"Message buffers handed out by the per-rank pools.",
		func() float64 { return float64(e.BufferStats().Requested) })
	r.CounterFunc("op2_dist_plan_builds_total",
		"Distributed loop plans built (plan-cache misses).",
		func() float64 { return float64(e.PlanBuilds()) })
	r.CounterFunc("op2_dist_steps_total",
		"Step submissions executed by the engine (single-loop runs included).",
		func() float64 { return float64(e.StepsRun()) })
	r.CounterFunc("op2_dist_halo_timeouts_total",
		"Halo exchanges that hit the engine's configured timeout.",
		func() float64 { return float64(e.HaloTimeouts()) })
	for p := 0; p < nPhases; p++ {
		e.phaseHists[p] = r.Histogram("op2_dist_phase_seconds",
			"Wall time of step-pipeline phases across ranks.",
			obs.DurationBuckets, "phase", phaseNames[p])
	}
}

// Metrics returns the attached metrics registry, if any.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// SetTraceRing attaches a span ring; pass nil to disable. With a ring
// attached every rank records one span per pipeline phase per loop
// occurrence (rank = span lane). The same attach-before-submitting
// contract as SetMetrics applies.
func (e *Engine) SetTraceRing(t *obs.TraceRing) {
	e.tracer = t
	e.obsOn = e.metrics != nil || e.tracer != nil
}

// TraceRing returns the attached span ring, if any.
func (e *Engine) TraceRing() *obs.TraceRing { return e.tracer }

// observePhase records one completed pipeline phase into the phase
// histogram and the span ring. Callers guard with e.obsOn so the
// disabled path pays no time.Now.
func (e *Engine) observePhase(loop string, rank, phase int, start time.Time) {
	d := time.Since(start)
	if e.metrics != nil {
		e.phaseHists[phase].ObserveDuration(d)
	}
	if e.tracer != nil {
		e.tracer.Record(loop, phaseNames[phase], rank, start, d)
	}
}
