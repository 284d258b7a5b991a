package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/perf"
	"op2hpx/op2"
)

// ServicePoint is one measured concurrency level of the simulation
// service: N concurrent airfoil jobs through one op2.Service, each on
// its own Dataflow runtime over the shared worker pool.
type ServicePoint struct {
	ConcurrentJobs   int
	JobsPerSec       float64
	NsPerJobIter     float64
	AllocsPerJobIter float64
	Bitwise          bool
}

// ServiceReport is the measured result of the service experiment,
// rendered by ServiceTable — the
// datapoint for the simulation-as-a-service control plane.
type ServiceReport struct {
	Experiment string
	Mesh       string
	Iters      int
	Reps       int
	Threads    int
	Note       string
	Points     []ServicePoint
}

// ServiceData measures simulation-service throughput at 1, 4 and 16
// concurrent airfoil jobs: jobs/second, wall-clock and heap allocations
// per job-iteration (job setup — mesh generation, loop declaration,
// runtime construction — included), and per-job bitwise verification of
// the flow field against a serial reference. All jobs run the Dataflow
// backend on the process-wide worker pool; the service's scheduler
// interleaves their step issues round-robin with the default per-job
// issue-ahead cap.
func ServiceData(o Options) (*ServiceReport, error) {
	serial := op2.MustNew(op2.WithBackend(op2.Serial))
	defer serial.Close() //nolint:errcheck // reference runtime
	ref, err := airfoil.NewApp(o.NX, o.NY, serial)
	if err != nil {
		return nil, err
	}
	if _, err := ref.Run(o.Iters); err != nil {
		return nil, err
	}
	refQ := ref.M.Q.Data()

	rep := &ServiceReport{
		Experiment: "airfoil-simulation-service",
		Mesh:       fmt.Sprintf("%dx%d", o.NX, o.NY),
		Iters:      o.Iters,
		Reps:       o.Reps,
		Threads:    runtime.NumCPU(),
		Note: "Simulation-as-a-service control plane: N concurrent airfoil jobs submitted to " +
			"one op2.Service, each job an isolated Dataflow runtime over the shared worker " +
			"pool, step issues interleaved round-robin from the single scheduler goroutine " +
			"with the default per-job issue-ahead cap. Every job is built from scratch each " +
			"round (mesh generation, loop declaration, runtime construction), so " +
			"allocs_per_job_iteration includes amortized job setup, not just steady-state " +
			"issue — the quantity to compare across concurrency levels: it staying flat from " +
			"1 to 16 jobs is the control plane adding no per-job interference, and " +
			"flow_field_bitwise_vs_serial proves isolation (every concurrent job reproduces " +
			"the serial flow field bit for bit).",
	}

	for _, conc := range []int{1, 4, 16} {
		sv := op2.NewService(op2.ServiceConfig{MaxResidentJobs: conc, MaxQueuedJobs: conc})
		bitwise := true
		round := func() error {
			ctx := context.Background()
			handles := make([]*op2.JobHandle, 0, conc)
			for i := 0; i < conc; i++ {
				h, err := sv.Submit(ctx, airfoil.Job(fmt.Sprintf("svc-%d-%d", conc, i),
					o.NX, o.NY, o.Iters, op2.WithBackend(op2.Dataflow)))
				if err != nil {
					return err
				}
				handles = append(handles, h)
			}
			for _, h := range handles {
				res, err := h.Result(ctx)
				if err != nil {
					return err
				}
				q := res.(*airfoil.JobResult).Q
				for k, v := range q {
					if math.Float64bits(v) != math.Float64bits(refQ[k]) {
						bitwise = false
						break
					}
				}
			}
			return nil
		}
		if err := round(); err != nil { // warm-up: pools, scheduler, plans
			sv.Close() //nolint:errcheck // already failing
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := perf.Measure(0, o.Reps, round)
		runtime.ReadMemStats(&m1)
		cerr := sv.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		jobIters := float64(o.Reps * conc * o.Iters)
		rep.Points = append(rep.Points, ServicePoint{
			ConcurrentJobs:   conc,
			JobsPerSec:       float64(conc) / st.Mean.Seconds(),
			NsPerJobIter:     float64(st.Mean.Nanoseconds()) / float64(conc*o.Iters),
			AllocsPerJobIter: float64(m1.Mallocs-m0.Mallocs) / jobIters,
			Bitwise:          bitwise,
		})
	}
	return rep, nil
}

// Service renders the service experiment as a table.
func Service(o Options) (*perf.Table, error) {
	rep, err := ServiceData(o)
	if err != nil {
		return nil, err
	}
	return ServiceTable(rep), nil
}

// ServiceTable renders an already-measured report.
func ServiceTable(rep *ServiceReport) *perf.Table {
	t := perf.NewTable("Simulation service: concurrent airfoil jobs (isolated runtimes, shared pool)",
		"jobs", "jobs/s", "ns/job-iter", "allocs/job-iter", "bitwise")
	t.Note = fmt.Sprintf("mesh %s cells, %d iterations/job, mean of %d reps, %d threads; %s",
		rep.Mesh, rep.Iters, rep.Reps, rep.Threads, rep.Note)
	for _, p := range rep.Points {
		t.AddRow(fmt.Sprint(p.ConcurrentJobs), fmt.Sprintf("%.2f", p.JobsPerSec),
			int64(p.NsPerJobIter), p.AllocsPerJobIter, fmt.Sprint(p.Bitwise))
	}
	return t
}
