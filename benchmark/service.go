package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

const serviceJobs = 8 // jobs per round, all resident at once

// serviceWorkload is a closed loop on one op2.Service: a round submits
// serviceJobs Airfoil jobs and then collects them all. The baselines
// build and run the same jobs back to back with no service.
func serviceWorkload(nx, ny, steps int, why string) workload {
	aw := airfoilWorkload{nx: nx, ny: ny}
	base := aw.workload("service_jobs", serviceJobs*steps, 0, why)
	base.mesh = fmt.Sprintf("%d jobs of airfoil %dx%d", serviceJobs, nx, ny)
	base.workingSet *= serviceJobs
	var oracle map[int]*airfoil.JobResult
	base.prepare = func(seed uint64) (err error) {
		oracle, err = serviceOracles(nx, ny, jobIters(seed, steps))
		return err
	}
	base.build = func(r role, o buildOpts) (instance, error) {
		s := &serviceInst{nx: nx, ny: ny, role: r, tr: o.tr, iters: jobIters(o.seed, steps), oracle: oracle,
			jobOpts: append(o.observe(), op2.WithBackend(op2.Dataflow)), resident: o.resident}
		if r == subject {
			o.tr.begin("op2.NewService")
			s.sv = op2.NewService(op2.ServiceConfig{MaxResidentJobs: serviceJobs, MaxQueuedJobs: serviceJobs, Metrics: o.reg, Trace: o.ring})
			o.tr.end()
		}
		return s, nil
	}
	base.check = nil // every job is checked against its oracle as it is collected
	return base
}

// jobIters gives each job of a round its step count: `steps` for seed
// 0, else a seeded order of one fixed ladder from three to five
// quarters of that, so every seed's round is the same amount of work.
func jobIters(seed uint64, steps int) []int {
	iters := make([]int, serviceJobs)
	for i := range iters {
		iters[i] = steps
		if seed != 0 {
			iters[i] = steps*3/4 + steps/2*i/(serviceJobs-1)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x6a6f6273)) // "jobs"
	rng.Shuffle(len(iters), func(i, j int) { iters[i], iters[j] = iters[j], iters[i] })
	return iters
}

// serviceInst runs rounds of jobs: through the service (subject) or
// directly on fresh Serial / ForkJoin runtimes (baselines).
type serviceInst struct {
	nx, ny   int
	role     role
	tr       *tracer
	sv       *op2.Service
	jobOpts  []op2.Option // runtime options of every job of the subject
	resident func()       // called once, when a round's jobs all hold their runtimes
	iters    []int
	oracle   map[int]*airfoil.JobResult // by step count

	// per-job observations of the subject, one entry per collected job
	latency, queueWait, submit, collect []time.Duration
	round                               int
}

// serviceOracles runs the serial reference once per distinct step count.
func serviceOracles(nx, ny int, iters []int) (map[int]*airfoil.JobResult, error) {
	oracle := map[int]*airfoil.JobResult{}
	for _, n := range iters {
		if oracle[n] != nil {
			continue
		}
		res, err := directJob(nx, ny, op2.Serial, n)
		if err != nil {
			return nil, err
		}
		oracle[n] = res
	}
	return oracle, nil
}

// directJob builds one job's application on a fresh runtime and runs it.
func directJob(nx, ny int, b op2.Backend, iters int) (*airfoil.JobResult, error) {
	rt, err := op2.New(op2.WithBackend(b))
	if err != nil {
		return nil, err
	}
	defer rt.Close() //nolint:errcheck // nothing is outstanding after Run
	app, err := airfoil.NewApp(nx, ny, rt)
	if err != nil {
		return nil, err
	}
	rms, err := app.Run(iters)
	if err != nil {
		return nil, err
	}
	return &airfoil.JobResult{RMS: rms, Q: append([]float64(nil), app.M.Q.Data()...)}, nil
}

func (s *serviceInst) verify(job int, res *airfoil.JobResult) error {
	want := s.oracle[s.iters[job]]
	if i := firstDiff(res.Q, want.Q); i >= 0 {
		return fmt.Errorf("job %d: q[%d] differs bitwise from the serial oracle", job, i)
	}
	if !relClose(res.RMS, want.RMS, 1e-12) {
		return fmt.Errorf("job %d: rms %.17g differs from the serial oracle's %.17g", job, res.RMS, want.RMS)
	}
	return nil
}

// block runs one round; the step count is the round's own.
func (s *serviceInst) block(int) (bt blockTimes, err error) {
	s.round++
	for _, n := range s.iters {
		bt.steps += n
	}
	bt.start = time.Now()
	if s.role != subject {
		for j, n := range s.iters {
			res, err := directJob(s.nx, s.ny, s.role.backend(), n)
			if err != nil {
				return bt, err
			}
			if err := s.verify(j, res); err != nil {
				return bt, err
			}
		}
		bt.synced = time.Now()
		bt.issued, bt.fenced = bt.synced, bt.synced
		return bt, nil
	}

	ctx := context.Background()
	s.tr.begin("submit round")
	handles := make([]*op2.JobHandle, len(s.iters))
	submitted := make([]time.Time, len(s.iters))
	granted := make([]time.Time, len(s.iters))
	collectDur := make([]time.Duration, len(s.iters))
	for j, n := range s.iters {
		spec := airfoil.Job(fmt.Sprintf("round%d-job%d", s.round, j), s.nx, s.ny, n, s.jobOpts...)
		// Setup runs when the job is granted residency and Collect when
		// its last step has retired: wrapping them times the queue wait
		// and the collection from outside the service.
		setup, collect := spec.Setup, spec.Collect
		spec.Setup = func(rt *op2.Runtime) (*op2.Step, error) {
			granted[j] = time.Now()
			return setup(rt)
		}
		spec.Collect = func(rt *op2.Runtime) (any, error) {
			t0 := time.Now()
			res, err := collect(rt)
			collectDur[j] = time.Since(t0)
			return res, err
		}
		submitted[j] = time.Now()
		handles[j], err = s.sv.Submit(ctx, spec)
		done := time.Now()
		if err != nil {
			return bt, err
		}
		s.tr.add("service.Submit", submitted[j], done)
		s.submit = append(s.submit, done.Sub(submitted[j]))
	}
	s.tr.end()
	bt.issued = time.Now()
	if s.resident != nil {
		for _, h := range handles {
			for h.Status().State < op2.JobRunning {
				time.Sleep(100 * time.Microsecond)
			}
		}
		s.resident()
		s.resident = nil
	}
	s.tr.begin("collect round")
	defer s.tr.end()
	for j, h := range handles {
		t0 := time.Now()
		res, err := h.Result(ctx)
		done := time.Now()
		if err != nil {
			return bt, err
		}
		s.tr.add("service.Result", t0, done)
		s.latency = append(s.latency, done.Sub(submitted[j]))
		s.queueWait = append(s.queueWait, granted[j].Sub(submitted[j]))
		s.collect = append(s.collect, collectDur[j])
		if err := s.verify(j, res.(*airfoil.JobResult)); err != nil {
			return bt, err
		}
	}
	bt.synced = time.Now()
	bt.fenced = bt.issued
	return bt, nil
}

func (s *serviceInst) state() state { return state{} }

func (s *serviceInst) runtime() *op2.Runtime { return nil }

func (s *serviceInst) close() error {
	if s.sv == nil {
		return nil
	}
	return s.sv.Close()
}

// serviceMetrics fills in the service's own numbers from the untraced
// subject's rounds p, the traced subject's registry growth d, and a few
// jobs sent through the service one at a time.
func (s *serviceInst) serviceMetrics(values map[string]float64, p series, d delta) error {
	durations := func(ds []time.Duration, unit func(time.Duration) float64) []float64 {
		out := make([]float64, len(ds))
		for i, x := range ds {
			out[i] = unit(x)
		}
		return out
	}
	// The first round was the warm-up.
	jobMs := median(durations(s.latency[serviceJobs:], ms))
	values["service.jobs_per_s"] = float64(len(p)*serviceJobs) / p.wall().Seconds()
	values["service.queue_wait_ms"] = median(durations(s.queueWait[serviceJobs:], ms))
	values["service.submit_us"] = median(durations(s.submit[serviceJobs:], us))
	values["service.collect_ms"] = median(durations(s.collect[serviceJobs:], ms))
	values["service.start_ms"] = d.meanMs("op2_service_job_start_seconds", "")

	rounds := s.iters
	var solo []float64
	for j := range 3 {
		s.iters = rounds[j : j+1]
		n := len(s.latency)
		if _, err := s.block(0); err != nil {
			return err
		}
		solo = append(solo, ms(s.latency[n]))
	}
	s.iters = rounds
	values["service.solo_job_ms"] = median(solo)
	values["service.interference_ratio"] = jobMs / median(solo)

	st := s.sv.Stats()
	values["service.steps_issued"] = float64(st.StepsIssued)
	values["service.steps_retired"] = float64(st.StepsRetired)
	values["service.rejected"] = float64(st.Rejected)
	values["service.failed"] = float64(st.Failed)
	values["service.retries"] = float64(st.Retries)
	return nil
}
