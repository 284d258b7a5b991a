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

// HotPathPoint is one measured configuration of the hot-path
// experiment: the airfoil timestep under one backend/issue mode, with
// wall time and heap allocations per iteration and the fused-group
// count the Dataflow step executor reports.
type HotPathPoint struct {
	Backend       string
	Mode          string // "step", "loop-at-a-time" or "step-async" (pipelined)
	NsPerIter     float64
	AllocsPerIter float64
	FusedPerIter  float64
	Bitwise       bool
}

// HotPathReport is the measured result of the hot-path experiment,
// rendered by HotPathTable — the before/after datapoint for the zero-allocation compiled-loop executor
// and step-level direct-loop fusion.
type HotPathReport struct {
	Experiment string
	Mesh       string
	Iters      int
	Reps       int
	Threads    int
	Note       string
	Points     []HotPathPoint
}

// HotPathData measures the airfoil timestep's steady-state issue cost:
// ns/iteration and heap allocations/iteration for the Serial and
// Dataflow backends, with the timestep issued as one Step (fused direct
// loops under Dataflow) versus loop-at-a-time, each verified bitwise
// against the serial golden.
func HotPathData(o Options) (*HotPathReport, error) {
	serial := op2.MustNew(op2.WithBackend(op2.Serial))
	defer serial.Close()
	ref, err := airfoil.NewApp(o.NX, o.NY, serial)
	if err != nil {
		return nil, err
	}
	refRms, err := ref.Run(o.Iters)
	if err != nil {
		return nil, err
	}

	threads := runtime.NumCPU()
	rep := &HotPathReport{
		Experiment: "airfoil-hotpath-compiled-loops",
		Mesh:       fmt.Sprintf("%dx%d", o.NX, o.NY),
		Iters:      o.Iters,
		Reps:       o.Reps,
		Threads:    threads,
		Note: "Steady-state issue cost of the airfoil timestep after the compiled-loop " +
			"executor (pinned plans, pooled reduction scratch, slot-indexed combine, persistent " +
			"chunk tasks), step-level direct-loop fusion (save_soln+adt_calc and " +
			"update+adt_calc each execute as one pass under Dataflow Steps), and the pooled " +
			"asynchronous issue path (intrusive wait-list LCOs: no promises, no per-issue " +
			"dependency-wait goroutine; distributed message buffers pooled per rank). " +
			"allocs/iteration counts heap allocations of a whole timestep — nine loop issues; " +
			"the 0-allocs/op guarantees are enforced by TestSteadyStateDirectLoopZeroAlloc " +
			"(synchronous) and TestSteadyStateAsyncLoopZeroAlloc (asynchronous). " +
			"step-async rows measure pipelined step.Async issue (iters steps in flight, one " +
			"wait at the end) with pools warmed to the pipeline's depth. " +
			"Before/after of the async path on this machine: ping-pong loop.Async " +
			"9 -> 0 allocs/op (serial and dataflow); pipelined airfoil step.Async dataflow " +
			"~112 -> ~4 allocs/iteration warm (pipeline-fill allocations amortize away; " +
			"a cold 50-deep pipeline still pays ~145/iter while its pools grow); " +
			"distributed steady state 92.7 -> ~8 allocs/iteration at 2 ranks and " +
			"206.2 -> ~10 at 4 ranks, with zero new message buffers per timestep " +
			"(TestDistSteadyStateMessagesAndBuffers). Earlier compiled-loop before/after " +
			"(BenchmarkStep/dataflow/batched, 5 timesteps/op, -benchtime=20x): " +
			"pre 5741303 ns/op, 73547 B/op, 1475 allocs/op; post 5443867 ns/op, 40299 B/op, " +
			"642 allocs/op (-5% ns, -45% bytes, -56% allocs). " +
			"bitwise compares q and rms with serial: every backend folds reductions per " +
			"plan block, whatever the chunker.",
	}

	for _, cfg := range []struct {
		backend     op2.Backend
		loopAtATime bool
		mode        string
	}{
		{op2.Serial, false, "step"},
		{op2.Serial, true, "loop-at-a-time"},
		{op2.Dataflow, false, "step"},
		{op2.Dataflow, true, "loop-at-a-time"},
	} {
		rt := op2.MustNew(op2.WithBackend(cfg.backend), op2.WithPoolSize(threads))
		app, err := airfoil.NewApp(o.NX, o.NY, rt)
		if err != nil {
			rt.Close() //nolint:errcheck // already failing
			return nil, err
		}
		app.LoopAtATime = cfg.loopAtATime
		// Verification run on fresh state, doubling as warm-up for the
		// compiled loops, pools and plans.
		rms, err := app.Run(o.Iters)
		if err != nil {
			rt.Close() //nolint:errcheck // already failing
			return nil, err
		}
		// Bitwise verification covers the flow field and the residual:
		// every backend and issue mode runs the same plan blocks and folds
		// reductions per block, so both must match serial.
		bitwise := math.Float64bits(rms) == math.Float64bits(refRms)
		for i, v := range app.M.Q.Data() {
			if math.Float64bits(v) != math.Float64bits(ref.M.Q.Data()[i]) {
				bitwise = false
				break
			}
		}
		fusedBefore := rt.StepStats().FusedGroups
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := perf.Measure(0, o.Reps, func() error {
			_, err := app.Run(o.Iters)
			return err
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			rt.Close() //nolint:errcheck // already failing
			return nil, err
		}
		iterations := float64(o.Reps * o.Iters)
		rep.Points = append(rep.Points, HotPathPoint{
			Backend:       cfg.backend.String(),
			Mode:          cfg.mode,
			NsPerIter:     float64(st.Mean.Nanoseconds()) / float64(o.Iters),
			AllocsPerIter: float64(m1.Mallocs-m0.Mallocs) / iterations,
			FusedPerIter:  float64(rt.StepStats().FusedGroups-fusedBefore) / iterations,
			Bitwise:       bitwise,
		})
		rt.Close() //nolint:errcheck // measurement done
	}

	// Asynchronous pipelines: the whole run issues steps with step.Async
	// and fences once — the pooled-issue-state path. Serial and Dataflow
	// shared-memory backends, plus the distributed engine at 2 ranks
	// (the per-rank message-buffer pools in action).
	for _, cfg := range []struct {
		backend op2.Backend
		ranks   int
		label   string
	}{
		{op2.Serial, 0, "serial"},
		{op2.Dataflow, 0, "dataflow"},
		{op2.Dataflow, 2, "distributed(2)"},
	} {
		var rt *op2.Runtime
		var app *airfoil.App
		var err error
		if cfg.ranks > 0 {
			var dapp *airfoil.DistApp
			dapp, err = airfoil.NewDistApp(o.NX, o.NY, cfg.ranks)
			if err != nil {
				return nil, err
			}
			rt, app = dapp.Rt, dapp.App
		} else {
			rt = op2.MustNew(op2.WithBackend(cfg.backend), op2.WithPoolSize(threads))
			app, err = airfoil.NewApp(o.NX, o.NY, rt)
			if err != nil {
				rt.Close() //nolint:errcheck // already failing
				return nil, err
			}
		}
		// Verification + warm-up to pipeline depth (pools converge to the
		// pipeline's working set).
		if _, err := app.Run(o.Iters); err != nil {
			rt.Close() //nolint:errcheck // already failing
			return nil, err
		}
		bitwise := true
		for i, v := range app.M.Q.Data() {
			if math.Float64bits(v) != math.Float64bits(ref.M.Q.Data()[i]) {
				bitwise = false
				break
			}
		}
		// Drive the step graph's Async directly — on every backend,
		// including Serial (App.Step only pipelines under Dataflow) — so
		// the measured path is exactly the pooled asynchronous issue.
		step := app.StepGraph()
		ctx := context.Background()
		pipeline := func() error {
			var last *op2.Future
			for i := 0; i < o.Iters; i++ {
				last = step.Async(ctx)
			}
			return last.Wait()
		}
		if err := pipeline(); err != nil { // extra warm-up on the exact path
			rt.Close() //nolint:errcheck // already failing
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := perf.Measure(0, o.Reps, pipeline)
		runtime.ReadMemStats(&m1)
		if err != nil {
			rt.Close() //nolint:errcheck // already failing
			return nil, err
		}
		iterations := float64(o.Reps * o.Iters)
		rep.Points = append(rep.Points, HotPathPoint{
			Backend:       cfg.label,
			Mode:          "step-async",
			NsPerIter:     float64(st.Mean.Nanoseconds()) / float64(o.Iters),
			AllocsPerIter: float64(m1.Mallocs-m0.Mallocs) / iterations,
			Bitwise:       bitwise,
		})
		rt.Close() //nolint:errcheck // measurement done
	}
	return rep, nil
}

// HotPath renders the hot-path experiment as a table.
func HotPath(o Options) (*perf.Table, error) {
	rep, err := HotPathData(o)
	if err != nil {
		return nil, err
	}
	return HotPathTable(rep), nil
}

// HotPathTable renders an already-measured report.
func HotPathTable(rep *HotPathReport) *perf.Table {
	t := perf.NewTable("Hot path: compiled loops + direct-loop fusion (airfoil timestep)",
		"backend", "mode", "ns/iter", "allocs/iter", "fused/iter", "bitwise")
	t.Note = fmt.Sprintf("mesh %s cells, %d iterations, mean of %d reps, %d threads; %s",
		rep.Mesh, rep.Iters, rep.Reps, rep.Threads, rep.Note)
	for _, p := range rep.Points {
		t.AddRow(p.Backend, p.Mode, int64(p.NsPerIter), p.AllocsPerIter, p.FusedPerIter,
			fmt.Sprint(p.Bitwise))
	}
	return t
}
