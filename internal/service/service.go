// Package service is the simulation-as-a-service control plane: it
// admits simulation job specs into a bounded queue, gives each admitted
// job an isolated runtime instance, and fairly interleaves the jobs'
// step issues onto the shared worker fleet from one scheduler goroutine.
//
// The design exploits the runtime property PRs 1-5 established: issuing
// a step asynchronously is allocation-free and nearly instant, while
// execution rides on pooled worker threads. One goroutine can therefore
// issue for MANY jobs — round-robin, one step per job per pass — and
// every job's runtime still observes the single-issuing-goroutine
// contract its dependency DAG requires. Per-job backpressure (max
// in-flight steps) keeps any one job from running arbitrarily far ahead
// of execution, which both bounds its pool growth (the cold-pipeline
// fill cost) and is what makes the interleave fair: a job at its cap
// yields its pass to the others.
//
// Lifecycle: Submit → Queued → (residency slot frees) → Starting (the
// spec's Start builds the isolated runtime) → Running (steps issue and
// retire) → Done. Cancel at any point via the submitted context or
// Job.Cancel. Admission is bounded twice: MaxResidentJobs runtimes
// exist at once, MaxQueuedJobs specs wait behind them, and past that
// Submit rejects with ErrQueueFull — typed, so callers can shed load.
//
// The package deliberately depends on no concrete runtime: jobs are
// Instances behind a 3-method interface, and the op2 facade adapts its
// Runtime/Step types (op2.Service, op2.JobSpec, op2.JobHandle).
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"op2hpx/internal/obs"
)

// Future is the completion future of one issued step (a subset of
// op2.Future's methods).
type Future interface {
	Wait() error
	Ready() bool
	Done() <-chan struct{}
}

// Instance is one admitted job's isolated runtime, built by Spec.Start.
// IssueStep is called only from the service's scheduler goroutine —
// that is how every instance's single-issuing-goroutine contract holds
// across concurrent jobs. Finalize and Close run on the job's retirer
// goroutine after every issued step has resolved, so they may touch the
// instance's data without racing issue.
type Instance interface {
	// IssueStep issues the job's next timestep asynchronously and
	// returns its completion future. It must not block on execution.
	IssueStep(ctx context.Context) (Future, error)
	// Finalize collects the job's result after all steps resolved
	// (sync data, fold trajectories, read reductions).
	Finalize(ctx context.Context) (any, error)
	// Close releases the instance's runtime.
	Close() error
}

// StepStats are a job's cumulative step-execution counters; instances
// report them through the optional StatsProvider interface.
type StepStats struct {
	Steps       int64
	FusedGroups int64
	FusedLoops  int64
}

// StatsProvider is implemented by instances that expose step counters.
type StatsProvider interface {
	StepStats() StepStats
}

// Spec describes one simulation job: how to build its isolated runtime
// and how many timesteps to issue.
type Spec struct {
	// Name labels the job in statuses and errors.
	Name string
	// Iters is the number of timesteps to issue (>= 1).
	Iters int
	// MaxInFlightSteps bounds the job's issue-ahead depth: at most this
	// many issued-but-unretired steps exist at once. 0 uses the
	// service's DefaultMaxInFlightSteps.
	MaxInFlightSteps int
	// Start builds the job's isolated runtime once a residency slot is
	// granted (never earlier — queued jobs hold no runtime). It runs on
	// one of the service's start workers — never the scheduler goroutine —
	// so a slow start (mesh generation, partitioning) does not stall the
	// other resident jobs' step issuing; ctx is the job's context. Under
	// a retry policy Start runs once per attempt, so it must build a
	// complete fresh instance every call.
	Start func(ctx context.Context) (Instance, error)
	// Retry bounds job-level recovery. On a retryable failure — any
	// start or step error that is not a cancellation — the attempt's
	// instance is closed and discarded, and after Retry.Backoff the job
	// is restarted through Start while the other resident jobs keep
	// stepping. The zero value disables retries.
	Retry RetryPolicy
	// Deadline bounds the job's total wall clock across all attempts,
	// backoffs included. Expiry cancels the job (its terminal verdict is
	// canceled, never retried). 0 means no deadline.
	Deadline time.Duration
}

// RetryPolicy bounds a job's recovery attempts.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts a job may consume,
	// the first included. 0 and 1 both mean a single attempt (no retry).
	MaxAttempts int
	// Backoff is the pause between a failed attempt's teardown and the
	// next attempt's start.
	Backoff time.Duration
}

// Resumer is implemented by instances that resume from a durable
// checkpoint: ResumeStep reports how many of the job's steps are
// already applied in the instance's initial state, and the scheduler
// issues only the remaining Iters-ResumeStep steps. The op2 facade
// implements it for jobs with JobSpec.CheckpointEvery set.
type Resumer interface {
	ResumeStep() int
}

// Drainer is implemented by instances that can persist their state for
// a graceful shutdown. When a Drain stops a running job, the retirer
// waits out the job's in-flight steps and then — before closing the
// instance — calls DrainCheckpoint, so the snapshot lands on a clean
// step boundary. The op2 facade implements it by checkpointing into
// the job's durable store, which is what lets a restarted server
// resume the job bitwise from the drain point.
type Drainer interface {
	DrainCheckpoint() error
}

// DefaultInFlightSteps is the issue-ahead cap a job runs at when
// neither its Spec nor the service's Config sets one.
const DefaultInFlightSteps = 8

// Config bounds the service.
type Config struct {
	// MaxResidentJobs is how many jobs hold live runtimes and issue
	// steps concurrently (default 4).
	MaxResidentJobs int
	// MaxQueuedJobs is how many admitted specs may wait for a residency
	// slot (default 64). Beyond it Submit rejects with ErrQueueFull.
	MaxQueuedJobs int
	// DefaultMaxInFlightSteps is the per-job issue-ahead cap applied
	// when a spec does not set its own (default DefaultInFlightSteps).
	DefaultMaxInFlightSteps int
	// StartWorkers is how many goroutines build job runtimes (Spec.Start)
	// concurrently (default 2). Starts never run on the scheduler
	// goroutine, so a slow start cannot stall other jobs' issuing.
	StartWorkers int
	// Metrics optionally exports the service's observables — queue depth,
	// residency, job lifecycle counters, steps issued/retired and the
	// job-start latency histogram — into a registry (sampled at scrape).
	Metrics *obs.Registry
	// Trace optionally records per-step retirement waits and job-start
	// spans into a span ring.
	Trace *obs.TraceRing
}

// Typed admission errors, testable with errors.Is.
var (
	// ErrQueueFull rejects a Submit when the job queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed rejects a Submit after Close.
	ErrClosed = errors.New("service: closed")
	// ErrInvalidSpec rejects a malformed job spec.
	ErrInvalidSpec = errors.New("service: invalid job spec")
	// ErrDrained is the terminal verdict of jobs interrupted by a
	// graceful Drain: the service stopped issuing their steps so the
	// process could shut down, not because anything about them failed.
	// It is never retried (the whole point of draining is to stop), and
	// a job whose instance implements Drainer persisted a checkpoint
	// first, so resubmitting after a restart resumes where the drain cut.
	ErrDrained = errors.New("service: job drained for shutdown")
)

// State is a job's lifecycle phase.
type State int

const (
	// Queued: admitted, waiting for a residency slot.
	Queued State = iota
	// Starting: residency granted, the spec's Start is building the
	// runtime.
	Starting
	// Running: steps are issuing and retiring.
	Running
	// Done: terminal. Status.Err distinguishes completed (nil), failed
	// and canceled (Status.Canceled).
	Done
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Starting:
		return "starting"
	case Running:
		return "running"
	case Done:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	Name     string
	State    State
	Issued   int   // steps issued so far
	Retired  int64 // steps applied: retired futures plus the attempt's resume offset
	Retries  int   // attempts consumed beyond the first (RetryPolicy)
	Err      error // terminal error; nil while live or on success
	Canceled bool  // terminal verdict was cancellation
}

// Stats are the service-level observables.
type Stats struct {
	QueueDepth int // jobs waiting for a residency slot
	Resident   int // jobs holding live runtimes
	Admitted   int64
	Rejected   int64
	Completed  int64
	Failed     int64
	Canceled   int64

	StepsIssued  int64
	StepsRetired int64
	Retries      int64
	Recoveries   int64
}

// Service is the control plane. Build one with New; it owns a scheduler
// goroutine until Close.
type Service struct {
	cfg Config

	mu       sync.Mutex
	queue    []*Job
	resident []*Job
	closed   bool

	// draining flips once, on Drain: admission starts rejecting, queued
	// jobs finish with ErrDrained instead of promoting, and the
	// scheduler stops issuing resident jobs' steps (their in-flight
	// steps retire, Drainer instances checkpoint, then they finish with
	// ErrDrained too). Atomic because the scheduler reads it outside mu.
	draining atomic.Bool

	admitted  int64
	rejected  int64
	completed int64
	failed    int64
	canceled  int64

	stepsIssued  atomic.Int64
	stepsRetired atomic.Int64
	retries      atomic.Int64
	recoveries   atomic.Int64

	wake chan struct{} // scheduler doorbell, capacity 1
	wg   sync.WaitGroup

	// The start-worker pool: the scheduler enqueues jobs whose runtimes
	// must be built, StartWorkers goroutines drain them. Capacity
	// MaxResidentJobs and at most one send per resident job (Job.
	// startSent), so the scheduler's send never blocks.
	startCh   chan *Job
	startWg   sync.WaitGroup
	closeOnce sync.Once

	startHist *obs.Histogram // op2_service_job_start_seconds, nil when metrics off
}

// New builds a service and starts its scheduler. Zero config fields take
// the documented defaults.
func New(cfg Config) *Service {
	if cfg.MaxResidentJobs <= 0 {
		cfg.MaxResidentJobs = 4
	}
	if cfg.MaxQueuedJobs <= 0 {
		cfg.MaxQueuedJobs = 64
	}
	if cfg.DefaultMaxInFlightSteps <= 0 {
		cfg.DefaultMaxInFlightSteps = DefaultInFlightSteps
	}
	if cfg.StartWorkers <= 0 {
		cfg.StartWorkers = 2
	}
	s := &Service{
		cfg:     cfg,
		wake:    make(chan struct{}, 1),
		startCh: make(chan *Job, cfg.MaxResidentJobs),
	}
	s.registerMetrics()
	s.startWg.Add(cfg.StartWorkers)
	for i := 0; i < cfg.StartWorkers; i++ {
		go s.startWorker()
	}
	s.wg.Add(1)
	go s.run()
	return s
}

// registerMetrics exports the service observables into cfg.Metrics as
// func-backed series sampled at scrape time (no-op when metrics are
// off). One callback per series; each snapshots Stats independently.
func (s *Service) registerMetrics() {
	r := s.cfg.Metrics
	if r == nil {
		return
	}
	r.GaugeFunc("op2_service_queue_depth",
		"Jobs waiting for a residency slot.",
		func() float64 { return float64(s.Stats().QueueDepth) })
	r.GaugeFunc("op2_service_resident_jobs",
		"Jobs holding live runtimes.",
		func() float64 { return float64(s.Stats().Resident) })
	r.CounterFunc("op2_service_jobs_admitted_total",
		"Jobs admitted into the queue.",
		func() float64 { return float64(s.Stats().Admitted) })
	r.CounterFunc("op2_service_jobs_rejected_total",
		"Jobs rejected at admission (queue full or service closed).",
		func() float64 { return float64(s.Stats().Rejected) })
	r.CounterFunc("op2_service_jobs_completed_total",
		"Jobs finished successfully.",
		func() float64 { return float64(s.Stats().Completed) })
	r.CounterFunc("op2_service_jobs_failed_total",
		"Jobs finished with an error.",
		func() float64 { return float64(s.Stats().Failed) })
	r.CounterFunc("op2_service_jobs_canceled_total",
		"Jobs finished by cancellation.",
		func() float64 { return float64(s.Stats().Canceled) })
	r.CounterFunc("op2_service_steps_issued_total",
		"Timesteps issued across all jobs.",
		func() float64 { return float64(s.stepsIssued.Load()) })
	r.CounterFunc("op2_service_steps_retired_total",
		"Timesteps whose futures resolved and were waited.",
		func() float64 { return float64(s.stepsRetired.Load()) })
	r.CounterFunc("op2_service_job_retries_total",
		"Job attempts restarted after a retryable failure.",
		func() float64 { return float64(s.retries.Load()) })
	r.CounterFunc("op2_service_job_recoveries_total",
		"Jobs that completed successfully after at least one retry.",
		func() float64 { return float64(s.recoveries.Load()) })
	s.startHist = r.Histogram("op2_service_job_start_seconds",
		"Latency of Spec.Start (runtime construction) on the start workers.",
		obs.DurationBuckets)
}

// Submit admits a job (or rejects it with ErrQueueFull/ErrClosed/
// ErrInvalidSpec). The job's lifetime is bound to ctx: canceling it
// cancels the job wherever it is — queued, starting or mid-run.
func (s *Service) Submit(ctx context.Context, spec Spec) (*Job, error) {
	if spec.Start == nil {
		return nil, fmt.Errorf("%w: %q has no Start", ErrInvalidSpec, spec.Name)
	}
	if spec.Iters < 1 {
		return nil, fmt.Errorf("%w: %q has iters %d < 1", ErrInvalidSpec, spec.Name, spec.Iters)
	}
	if spec.MaxInFlightSteps < 0 {
		return nil, fmt.Errorf("%w: %q has max in-flight steps %d < 0", ErrInvalidSpec, spec.Name, spec.MaxInFlightSteps)
	}
	if spec.Retry.MaxAttempts < 0 {
		return nil, fmt.Errorf("%w: %q has max attempts %d < 0", ErrInvalidSpec, spec.Name, spec.Retry.MaxAttempts)
	}
	if spec.Retry.Backoff < 0 {
		return nil, fmt.Errorf("%w: %q has retry backoff %v < 0", ErrInvalidSpec, spec.Name, spec.Retry.Backoff)
	}
	if spec.Deadline < 0 {
		return nil, fmt.Errorf("%w: %q has deadline %v < 0", ErrInvalidSpec, spec.Name, spec.Deadline)
	}
	maxIF := spec.MaxInFlightSteps
	if maxIF == 0 {
		maxIF = s.cfg.DefaultMaxInFlightSteps
	}
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.rejected++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: job %q rejected", ErrClosed, spec.Name)
	}
	if len(s.queue) >= s.cfg.MaxQueuedJobs {
		s.rejected++
		queued, resident := len(s.queue), len(s.resident)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: job %q rejected (%d queued, %d resident)",
			ErrQueueFull, spec.Name, queued, resident)
	}
	jctx, cancel := context.WithCancel(ctx)
	if spec.Deadline > 0 {
		// The deadline spans the whole job — queueing, every attempt and
		// the backoffs between them. Its expiry reads as cancellation
		// (never a retryable fault), so an expired job tears down
		// immediately instead of burning its remaining attempts.
		var tcancel context.CancelFunc
		jctx, tcancel = context.WithTimeout(jctx, spec.Deadline)
		base := cancel
		cancel = func() { tcancel(); base() }
	}
	j := &Job{
		svc:         s,
		spec:        spec,
		ctx:         jctx,
		cancelCtx:   cancel,
		maxInFlight: maxIF,
		retireCh:    make(chan Future, maxIF),
		done:        make(chan struct{}),
		state:       Queued,
	}
	s.queue = append(s.queue, j)
	s.admitted++
	// Promote eagerly so admission accounting is deterministic: a job
	// submitted while residency has room never occupies a queue slot,
	// even transiently (Start itself still runs on the scheduler).
	s.promoteLocked()
	s.mu.Unlock()
	s.poke()
	return j, nil
}

// Stats snapshots the service-level observables.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		QueueDepth: len(s.queue),
		Resident:   len(s.resident),
		Admitted:   s.admitted,
		Rejected:   s.rejected,
		Completed:  s.completed,
		Failed:     s.failed,
		Canceled:   s.canceled,
	}
	s.mu.Unlock()
	st.StepsIssued = s.stepsIssued.Load()
	st.StepsRetired = s.stepsRetired.Load()
	st.Retries = s.retries.Load()
	st.Recoveries = s.recoveries.Load()
	return st
}

// Close cancels every queued and resident job, waits for them to drain
// (runtimes closed, results recorded), and stops the scheduler. Jobs
// already done keep their results. Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	jobs := make([]*Job, 0, len(s.queue)+len(s.resident))
	jobs = append(jobs, s.queue...)
	jobs = append(jobs, s.resident...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancelCtx()
	}
	s.poke()
	s.wg.Wait()
	// The scheduler (the only sender) has exited and every resident job
	// is finished, so the start queue is empty and safe to close.
	s.closeOnce.Do(func() { close(s.startCh) })
	s.startWg.Wait()
	return nil
}

// Drain gracefully quiesces the service for shutdown: admission closes
// (Submit rejects with ErrClosed), queued jobs finish with ErrDrained
// without ever starting a runtime, and every resident job stops issuing
// — its in-flight steps retire, its instance checkpoints if it
// implements Drainer, and it finishes with ErrDrained (a job that had
// already issued its last step completes normally instead). Drain
// returns once every job reached its terminal state, or with ctx's
// error if the caller's patience runs out first. It does not stop the
// scheduler; follow with Close.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.queue)+len(s.resident))
	jobs = append(jobs, s.queue...)
	jobs = append(jobs, s.resident...)
	s.mu.Unlock()
	s.poke()
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
		}
	}
	return nil
}

// poke rings the scheduler doorbell without blocking.
func (s *Service) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is the scheduler goroutine — the ONLY goroutine that calls
// Instance.IssueStep, for every job of the service (runtime builds are
// delegated to the start workers). Each pass promotes queued jobs into
// free residency slots, then visits the resident jobs round-robin
// issuing at most one step per job; passes repeat while any job made
// progress, then the scheduler sleeps on its doorbell (rung by submits,
// cancels, completed starts, retired steps and finished jobs).
//
//op2:scheduler
func (s *Service) run() {
	defer s.wg.Done()
	var pass []*Job
	for {
		s.mu.Lock()
		s.promoteLocked()
		if s.closed && len(s.resident) == 0 && len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		pass = append(pass[:0], s.resident...)
		s.mu.Unlock()

		progress := false
		for _, j := range pass {
			if s.visit(j) {
				progress = true
			}
		}
		if !progress {
			<-s.wake
		}
	}
}

// promoteLocked finishes queue entries canceled while waiting (terminal
// without ever holding a runtime, regardless of residency pressure),
// then moves queued jobs into free residency slots in FIFO order.
// While draining it instead finishes every queued job with ErrDrained
// and promotes nothing — freed residency slots stay empty so the
// service winds down.
func (s *Service) promoteLocked() {
	draining := s.draining.Load()
	kept := s.queue[:0]
	for _, j := range s.queue {
		switch {
		case j.ctx.Err() != nil:
			s.finishLocked(j, nil, fmt.Errorf("service: job %q canceled while queued: %w", j.spec.Name, j.ctx.Err()))
		case draining:
			s.finishLocked(j, nil, fmt.Errorf("service: job %q: %w", j.spec.Name, ErrDrained))
		default:
			kept = append(kept, j)
		}
	}
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
	for len(s.queue) > 0 && len(s.resident) < s.cfg.MaxResidentJobs {
		j := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		j.state = Starting
		s.resident = append(s.resident, j)
	}
}

// visit gives one resident job its slice of the pass: hand it to the
// start-worker pool if its runtime is not built yet, else issue at most
// one step. Reports whether the job made progress (the pass-repeat
// condition).
func (s *Service) visit(j *Job) bool {
	if j.resetPending.CompareAndSwap(true, false) {
		// The retirer tore down a failed attempt and rearmed the job:
		// reset the issue-side state so this pass rebuilds the runtime
		// and the next one reissues from the attempt's resume step. The
		// acquire on the swap orders the retirer's retireCh replacement
		// before any use below.
		j.doneIssuing = false
		j.startSent = false
		j.issued = 0
		j.resumeApplied = false
	}
	if j.doneIssuing {
		return false // retirer owns the endgame
	}
	s.mu.Lock()
	inst := j.inst
	resume := j.resume
	s.mu.Unlock()
	if inst == nil {
		if !j.startSent {
			// Hand the runtime build to the pool. The send cannot block:
			// capacity MaxResidentJobs, at most one outstanding send per
			// resident job (startSent, reset only after a start landed).
			j.startSent = true
			s.startCh <- j
		}
		return false // the start worker pokes the scheduler when done
	}
	if !j.resumeApplied {
		// First visit of a started attempt: steps the instance restored
		// from a checkpoint are already applied, so issue only the rest.
		j.resumeApplied = true
		j.issued = resume
	}
	if j.ctx.Err() != nil || j.loadErr() != nil {
		// Canceled mid-run, or the retirer already recorded a step
		// failure: stop issuing; in-flight steps resolve (canceled ones
		// with cancellation errors) and the retirer finishes the job.
		j.doneIssuing = true
		close(j.retireCh)
		return true
	}
	if j.issued >= j.spec.Iters {
		// Nothing left to issue — possible on arrival when a restored
		// checkpoint already covers every step.
		j.doneIssuing = true
		close(j.retireCh)
		return true
	}
	if s.draining.Load() {
		// Graceful shutdown: stop mid-run. The retirer waits out the
		// in-flight steps, checkpoints through Drainer, and finishes the
		// job with this verdict. (A job whose last step already issued
		// took the Iters branch above and completes normally.)
		j.fail(fmt.Errorf("service: job %q: %w", j.spec.Name, ErrDrained))
		j.doneIssuing = true
		close(j.retireCh)
		return true
	}
	if int(j.inflight.Load()) >= j.maxInFlight {
		return false // at its backpressure cap: yield the pass
	}
	fut, err := inst.IssueStep(j.ctx)
	j.issued++
	s.stepsIssued.Add(1)
	if err != nil {
		j.fail(fmt.Errorf("service: job %q step %d failed to issue: %w", j.spec.Name, j.issued, err))
		j.doneIssuing = true
		close(j.retireCh)
		return true
	}
	// inflight is incremented before the send, so the channel (capacity
	// maxInFlight) can never fill: occupancy <= issued-retired = inflight.
	j.inflight.Add(1)
	j.retireCh <- fut
	if j.issued == j.spec.Iters {
		j.doneIssuing = true
		close(j.retireCh)
	}
	return true
}

// startWorker drains the start queue: each job's Spec.Start runs here,
// off the scheduler goroutine, so one slow runtime build never blocks
// the other resident jobs' issuing.
func (s *Service) startWorker() {
	defer s.startWg.Done()
	for j := range s.startCh {
		s.startJob(j)
	}
}

// startJob builds one job's runtime, records the start latency, and
// either spawns the job's retirer (success) or finishes the job
// (failure). Start failures draw on the job's retry budget like step
// failures do — the next attempt runs right here after the backoff,
// occupying this start worker, so a crash-looping spec cannot flood
// the scheduler. Always pokes the scheduler: a new Running job wants
// its first step issued, a failed start freed a residency slot.
func (s *Service) startJob(j *Job) {
	inst, err := s.runStart(j)
	for err != nil && j.consumeRetry(err) && j.backoffWait() {
		inst, err = s.runStart(j)
	}
	if err != nil {
		s.mu.Lock()
		s.removeResidentLocked(j)
		s.finishLocked(j, nil, fmt.Errorf("service: job %q failed to start: %w", j.spec.Name, err))
		s.mu.Unlock()
		s.poke()
		return
	}
	resume := 0
	if rp, ok := inst.(Resumer); ok {
		resume = rp.ResumeStep()
		if resume < 0 {
			resume = 0
		}
		if resume > j.spec.Iters {
			resume = j.spec.Iters
		}
	}
	s.mu.Lock()
	j.inst = inst
	j.state = Running
	j.resume = resume
	s.mu.Unlock()
	if resume > 0 {
		// The restored steps count as applied progress: Status.Retired
		// resumes from the checkpoint instead of rewinding to zero.
		j.retired.Store(int64(resume))
	}
	// The job is still resident here, so the scheduler cannot have
	// exited: this Add is ordered before the service's wg drains.
	s.wg.Add(1)
	go j.retire()
	s.poke()
}

// runStart is one timed invocation of the spec's Start.
func (s *Service) runStart(j *Job) (Instance, error) {
	obsOn := s.startHist != nil || s.cfg.Trace != nil
	var t0 time.Time
	if obsOn {
		t0 = time.Now()
	}
	inst, err := j.spec.Start(j.ctx)
	if obsOn {
		d := time.Since(t0)
		if s.startHist != nil {
			s.startHist.ObserveDuration(d)
		}
		if s.cfg.Trace != nil {
			s.cfg.Trace.Record(j.spec.Name, "start", 0, t0, d)
		}
	}
	return inst, err
}

// removeResidentLocked drops j from the resident set.
func (s *Service) removeResidentLocked(j *Job) {
	for i, r := range s.resident {
		if r == j {
			s.resident = append(s.resident[:i], s.resident[i+1:]...)
			return
		}
	}
}

// finishLocked records a job's terminal verdict and releases its waiters.
func (s *Service) finishLocked(j *Job, result any, err error) {
	j.result = result
	j.err = err
	j.state = Done
	switch {
	case err == nil:
		s.completed++
		if j.retriesUsed > 0 {
			s.recoveries.Add(1)
			if s.cfg.Trace != nil {
				s.cfg.Trace.Record(j.spec.Name, "recover", 0, time.Now(), 0)
			}
		}
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDrained):
		// Drains classify with cancellations: the operator stopped the
		// job; nothing about the job itself failed.
		j.canceled = true
		s.canceled++
	default:
		s.failed++
	}
	j.cancelCtx() // release the context's resources
	close(j.done)
}

// finishJob is finishLocked plus residency release and a scheduler poke
// (a slot freed means a queued job can promote).
func (s *Service) finishJob(j *Job, result any, err error) {
	s.mu.Lock()
	s.removeResidentLocked(j)
	s.finishLocked(j, result, err)
	s.mu.Unlock()
	s.poke()
}
