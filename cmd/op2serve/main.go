// Command op2serve drives the simulation service: it submits N
// concurrent airfoil jobs to one op2.Service — each job an isolated
// runtime, all jobs' step issues interleaved onto the shared worker
// fleet — waits for them, cross-checks that every job produced the
// identical flow field, and prints throughput plus the service's
// observables.
//
// Examples:
//
//	op2serve                          # 4 dataflow jobs, default bounds
//	op2serve -jobs 16 -max-resident 4 # 16 jobs through 4 residency slots
//	op2serve -backend serial
//	op2serve -backend dist -ranks 2   # distributed jobs
//	op2serve -inflight 2              # tighter per-job issue-ahead
//	op2serve -telemetry :9090         # serve /metrics, /healthz, /readyz,
//	                                  # /trace and /debug/pprof while running
//	op2serve -telemetry :9090 -hold 30s  # keep serving after the jobs finish
//	op2serve -checkpoint-dir /var/lib/op2  # persist checkpoints; a restarted
//	                                       # server resumes jobs from them
//
// SIGINT/SIGTERM triggers a graceful drain: /readyz flips to 503,
// admission stops, every resident job's in-flight steps retire and its
// state is checkpointed (durably, with -checkpoint-dir), then the
// process exits cleanly. Re-running with the same -checkpoint-dir
// resumes each job bitwise from its drain point.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/obs"
	"op2hpx/op2"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "op2serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		jobs        = flag.Int("jobs", 4, "airfoil jobs to submit")
		iters       = flag.Int("iters", 100, "time iterations per job")
		nx          = flag.Int("nx", 120, "mesh cells in x per job")
		ny          = flag.Int("ny", 60, "mesh cells in y per job")
		backend     = flag.String("backend", "dataflow", "job backend: serial, forkjoin, dataflow, dist")
		ranks       = flag.Int("ranks", 2, "ranks per job (dist backend)")
		pool        = flag.Int("pool", 0, "worker pool size per job (0 = runtime default)")
		inflight    = flag.Int("inflight", 0, "per-job max in-flight steps (0 = service default)")
		maxResident = flag.Int("max-resident", 4, "jobs holding live runtimes at once")
		maxQueued   = flag.Int("max-queued", 64, "admitted jobs waiting behind them")
		retries     = flag.Int("retries", 0, "total attempts per job (0 or 1 = no retry): failed jobs are torn down and re-run from their last checkpoint")
		backoff     = flag.Duration("retry-backoff", 100*time.Millisecond, "pause between a failed attempt's teardown and the next attempt")
		deadline    = flag.Duration("job-deadline", 0, "per-job wall-clock bound across all attempts (0 = none); expiry cancels the job")
		cpEvery     = flag.Int("checkpoint-every", 0, "take a fenced bitwise checkpoint every N steps (0 = off); retried attempts resume from it")
		cpDir       = flag.String("checkpoint-dir", "", "directory for durable checkpoints: periodic and drain checkpoints persist there, and a restarted server resumes each job from its file")
		drainTO     = flag.Duration("drain-timeout", 30*time.Second, "bound on the SIGINT/SIGTERM graceful drain before the process gives up")
		telemetry   = flag.String("telemetry", "", "address to serve /metrics, /healthz, /readyz, /trace and /debug/pprof on (empty = telemetry off)")
		traceSpans  = flag.Int("trace-spans", 16384, "span ring capacity for /trace (with -telemetry)")
		hold        = flag.Duration("hold", 0, "keep the telemetry endpoint up this long after the jobs finish")
	)
	flag.Parse()

	var opts []op2.Option
	switch *backend {
	case "serial":
	case "forkjoin":
		opts = append(opts, op2.WithBackend(op2.ForkJoin))
	case "dataflow":
		opts = append(opts, op2.WithBackend(op2.Dataflow))
	case "dist":
		opts = append(opts, op2.WithRanks(*ranks))
	default:
		return fmt.Errorf("unknown backend %q", *backend)
	}
	if *pool > 0 && *backend != "dist" {
		opts = append(opts, op2.WithPoolSize(*pool))
	}

	// The telemetry edge: one registry and span ring shared by the
	// service (queue depth, lifecycle counters, start latency) and every
	// job runtime (loop/phase histograms, halo counters — same-named
	// func-backed series sum across runtimes), served over HTTP next to
	// health probes and pprof.
	var (
		reg    *op2.Metrics
		ring   *op2.TraceRing
		health *obs.Health
	)
	if *telemetry != "" {
		reg = op2.NewMetrics()
		ring = op2.NewTraceRing(*traceSpans)
		health = obs.NewHealth()
		ln, err := net.Listen("tcp", *telemetry)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer ln.Close() //nolint:errcheck // process exit tears it down
		srv := &http.Server{Handler: obs.TelemetryMux(reg, ring, health)}
		go srv.Serve(ln) //nolint:errcheck // exits with the listener
		fmt.Printf("telemetry: http://%s/metrics\n", ln.Addr())
		opts = append(opts, op2.WithMetricsRegistry(reg), op2.WithTraceRing(ring))
	}

	var store op2.CheckpointStore
	if *cpDir != "" {
		ds, err := op2.NewDirCheckpoints(*cpDir)
		if err != nil {
			return err
		}
		store = ds
	}

	sv := op2.NewService(op2.ServiceConfig{
		MaxResidentJobs: *maxResident,
		MaxQueuedJobs:   *maxQueued,
		Metrics:         reg,
		Trace:           ring,
	})
	defer sv.Close() //nolint:errcheck // drained explicitly below

	// Graceful shutdown: the first SIGINT/SIGTERM drains (readiness
	// flips, jobs checkpoint and finish ErrJobDrained, the result loop
	// below unblocks); a second signal aborts hard.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Printf("\nop2serve: %v: draining (checkpointing resident jobs, up to %v)\n", sig, *drainTO)
		if health != nil {
			health.SetReady(false)
		}
		dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := sv.Drain(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "op2serve:", err)
		}
		sig = <-sigCh
		fmt.Fprintf(os.Stderr, "op2serve: %v again: aborting\n", sig)
		os.Exit(130)
	}()

	fmt.Printf("op2serve: %d airfoil jobs (%dx%d cells, %d iters, %s) through %d residency slots\n",
		*jobs, *nx, *ny, *iters, *backend, *maxResident)

	ctx := context.Background()
	start := time.Now()
	handles := make([]*op2.JobHandle, 0, *jobs)
	for i := 0; i < *jobs; i++ {
		spec := airfoil.Job(fmt.Sprintf("airfoil-%d", i), *nx, *ny, *iters, opts...)
		spec.MaxInFlightSteps = *inflight
		spec.Retry = op2.RetryPolicy{MaxAttempts: *retries, Backoff: *backoff}
		spec.Deadline = *deadline
		spec.CheckpointEvery = *cpEvery
		spec.CheckpointStore = store
		h, err := sv.Submit(ctx, spec)
		if err != nil {
			return err
		}
		handles = append(handles, h)
		if reg != nil {
			// Per-job step counters, readable while the job runs.
			reg.CounterFunc("op2_job_steps_total",
				"Timesteps executed by this job's runtime.",
				func() float64 { return float64(h.StepStats().Steps) },
				"job", h.Name())
			reg.CounterFunc("op2_job_fused_groups_total",
				"Fused loop groups executed by this job's runtime.",
				func() float64 { return float64(h.StepStats().FusedGroups) },
				"job", h.Name())
		}
	}
	if health != nil {
		health.SetReady(true) // all jobs admitted; scrapes are meaningful now
	}

	var refRMS float64
	var refQ []float64
	drained := 0
	for _, h := range handles {
		res, err := h.Result(ctx)
		if err != nil {
			if errors.Is(err, op2.ErrJobDrained) {
				drained++
				fmt.Printf("job %s: drained at step %d\n", h.Name(), h.Status().Retired)
				continue
			}
			return fmt.Errorf("job %s: %w", h.Name(), err)
		}
		jr := res.(*airfoil.JobResult)
		if refQ == nil {
			refRMS, refQ = jr.RMS, jr.Q
			continue
		}
		if math.Float64bits(jr.RMS) != math.Float64bits(refRMS) {
			return fmt.Errorf("job %s: rms %v differs from first completed job's %v", h.Name(), jr.RMS, refRMS)
		}
		for k := range jr.Q {
			if math.Float64bits(jr.Q[k]) != math.Float64bits(refQ[k]) {
				return fmt.Errorf("job %s: q[%d] differs from first completed job", h.Name(), k)
			}
		}
	}
	elapsed := time.Since(start)

	st := sv.Stats()
	if drained > 0 {
		where := "in memory only"
		if store != nil {
			where = fmt.Sprintf("persisted under %s", *cpDir)
		}
		fmt.Printf("\ndrained %d of %d jobs for shutdown (checkpoints %s); the %d completed agree bitwise\n",
			drained, *jobs, where, *jobs-drained)
	} else {
		fmt.Printf("\nall %d jobs agree bitwise: rms %.5e\n", *jobs, refRMS)
	}
	fmt.Printf("wall time %v  (%.2f jobs/s, %.0f job-iters/s)\n",
		elapsed.Round(time.Millisecond),
		float64(*jobs)/elapsed.Seconds(),
		float64(*jobs)*float64(*iters)/elapsed.Seconds())
	fmt.Printf("service: admitted %d  completed %d  failed %d  canceled %d  rejected %d\n",
		st.Admitted, st.Completed, st.Failed, st.Canceled, st.Rejected)
	fmt.Printf("steps issued %d  retired %d  retries %d  recoveries %d\n",
		st.StepsIssued, st.StepsRetired, st.Retries, st.Recoveries)
	if *hold > 0 && *telemetry != "" {
		fmt.Printf("holding telemetry endpoint for %v\n", *hold)
		time.Sleep(*hold)
	}
	if health != nil {
		health.SetReady(false) // draining: fail /readyz before teardown
	}
	return sv.Close()
}
