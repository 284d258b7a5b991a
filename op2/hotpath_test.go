package op2_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/service"
	"op2hpx/op2"
)

// noGC disables the garbage collector for the duration of an allocation
// measurement: the steady-state pools (loop runs, views, chunk tasks)
// are sync.Pools, which a GC cycle may clear mid-measurement.
func noGC(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector randomly drops sync.Pool reuse; allocation counts are meaningless")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestSteadyStateDirectLoopZeroAlloc is the hot-path regression test of
// the compiled-loop executor: once plans, scratch tables and chunk
// tasks are warm, issuing a direct Body loop synchronously performs
// ZERO allocations per invocation — on the Serial backend and on the
// Dataflow backend (dependency gather, version-chain recording and the
// pool-executed parallel region included).
func TestSteadyStateDirectLoopZeroAlloc(t *testing.T) {
	noGC(t)
	for _, backend := range []op2.Backend{op2.Serial, op2.Dataflow} {
		t.Run(backend.String(), func(t *testing.T) {
			rt := op2.MustNew(op2.WithBackend(backend), op2.WithPoolSize(2))
			defer rt.Close()
			const n = 4096
			cells := op2.MustDeclSet(n, "cells")
			x := op2.MustDeclDat(cells, 1, nil, "x")
			y := op2.MustDeclDat(cells, 1, nil, "y")
			xd, yd := x.Data(), y.Data()
			lp := rt.ParLoop("saxpy", cells,
				op2.DirectArg(x, op2.Read),
				op2.DirectArg(y, op2.RW),
			).Body(rangeOnly(func(lo, hi int, _ []float64) {
				for i := lo; i < hi; i++ {
					yd[i] += 2 * xd[i]
				}
			}))
			ctx := context.Background()
			for i := 0; i < 10; i++ { // warm plans, pools, task closures
				if err := lp.Run(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if err := lp.Run(ctx); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady-state direct loop: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateReductionLoopZeroAlloc extends the zero-alloc
// guarantee to direct loops with a global reduction: the slot-indexed
// scratch table and the fold accumulator are pooled per compiled loop.
func TestSteadyStateReductionLoopZeroAlloc(t *testing.T) {
	noGC(t)
	for _, backend := range []op2.Backend{op2.Serial, op2.Dataflow} {
		t.Run(backend.String(), func(t *testing.T) {
			rt := op2.MustNew(op2.WithBackend(backend), op2.WithPoolSize(2))
			defer rt.Close()
			const n = 4096
			cells := op2.MustDeclSet(n, "cells")
			x := op2.MustDeclDat(cells, 1, nil, "x")
			sum := op2.MustDeclGlobal(1, nil, "sum")
			xd := x.Data()
			lp := rt.ParLoop("sum", cells,
				op2.DirectArg(x, op2.Read),
				op2.GblArg(sum, op2.Inc),
			).Body(rangeOnly(func(lo, hi int, scratch []float64) {
				for i := lo; i < hi; i++ {
					scratch[0] += xd[i]
				}
			}))
			ctx := context.Background()
			for i := 0; i < 10; i++ {
				if err := lp.Run(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if err := lp.Run(ctx); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady-state reduction loop: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateIndirectLoopAllocsBounded caps the per-invocation
// allocations of an indirect (colored) loop: the plan, locator-free
// colored execution and reduction scratches are all pooled, leaving only
// small bounded overhead (per-color region bookkeeping).
func TestSteadyStateIndirectLoopAllocsBounded(t *testing.T) {
	noGC(t)
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	const ncells, nedges = 2048, 4096
	cells := op2.MustDeclSet(ncells, "cells")
	edges := op2.MustDeclSet(nedges, "edges")
	table := make([]int32, 2*nedges)
	for e := 0; e < nedges; e++ {
		table[2*e] = int32(e % ncells)
		table[2*e+1] = int32((e + 13) % ncells)
	}
	pe := op2.MustDeclMap(edges, cells, 2, table, "pe")
	acc := op2.MustDeclDat(cells, 1, nil, "acc")
	lp := rt.ParLoop("scatter", edges,
		op2.DatArg(acc, 0, pe, op2.Inc),
		op2.DatArg(acc, 1, pe, op2.Inc),
	).Kernel(func(v [][]float64) {
		v[0][0] += 1
		v[1][0] += 0.5
	})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := lp.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	const cap = 16 // generous: measured ~0-2 (per-color inline/region bookkeeping)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := lp.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs > cap {
		t.Errorf("steady-state indirect loop: %v allocs/op, want <= %d", allocs, cap)
	}
}

// TestSteadyStateAsyncLoopZeroAlloc is the asynchronous mirror of the
// direct-loop guard: once the pooled issue states (each keeping the one
// Future vended over it) and dependency nodes are warm, an Async
// issue-and-wait of a direct Body loop performs ZERO allocations per
// cycle — no promises, no dependency-wait goroutine, no futures slice.
// Dependencies link onto the predecessors' intrusive wait-lists and the
// whole issue state recycles once it has resolved, its version-chain
// entries are displaced and the loop's next Async has released it.
func TestSteadyStateAsyncLoopZeroAlloc(t *testing.T) {
	noGC(t)
	for _, backend := range []op2.Backend{op2.Serial, op2.Dataflow} {
		t.Run(backend.String(), func(t *testing.T) {
			rt := op2.MustNew(op2.WithBackend(backend), op2.WithPoolSize(2))
			defer rt.Close()
			const n = 4096
			cells := op2.MustDeclSet(n, "cells")
			x := op2.MustDeclDat(cells, 1, nil, "x")
			y := op2.MustDeclDat(cells, 1, nil, "y")
			xd, yd := x.Data(), y.Data()
			lp := rt.ParLoop("saxpy", cells,
				op2.DirectArg(x, op2.Read),
				op2.DirectArg(y, op2.RW),
			).Body(rangeOnly(func(lo, hi int, _ []float64) {
				for i := lo; i < hi; i++ {
					yd[i] += 2 * xd[i]
				}
			}))
			ctx := context.Background()
			for i := 0; i < 10; i++ { // warm pools, plans, issue states
				if err := lp.Async(ctx).Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if err := lp.Async(ctx).Wait(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("steady-state async loop issue: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateStepAsyncAllocsBounded bounds the steady-state cost of
// the pipelined Async step path: once the pools have grown to the
// pipeline's depth (the warm-up run), a whole airfoil timestep — nine
// loop issues, two fused groups, one step future — costs a small
// bounded number of allocations, an order of magnitude below the
// pre-pool design's ~112 allocs/iteration (two promises plus a wait
// goroutine per loop issue, a futures slice and completion goroutine
// per step).
//
// The pipeline runs at the issue-ahead depth op2.Service gives a job
// whose spec sets none (service.DefaultInFlightSteps; the service
// enforces it in its scheduler, WithMaxInFlightSteps enforces the same
// depth here). The uncapped app.Run path has no per-step bound: its
// pools grow to however far issue happens to run ahead of execution, up
// to the whole window, so a warm uncapped window measures anywhere from
// about one to several tens of allocations per step.
// TestBackpressureCapsColdPipelineFillAllocs pins that growth against
// the cap.
func TestSteadyStateStepAsyncAllocsBounded(t *testing.T) {
	noGC(t)
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2),
		op2.WithMaxInFlightSteps(service.DefaultInFlightSteps))
	defer rt.Close()
	app, err := airfoil.NewApp(30, 16, rt)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 50
	// Warm-up at the measured pipeline depth: the pooled issue states
	// recycle as execution catches up, so the pools converge to the
	// pipeline's working set.
	if _, err := app.Run(iters); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := app.Run(iters); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	perIter := float64(m1.Mallocs-m0.Mallocs) / iters
	t.Logf("%.2f allocs/iter at issue-ahead depth %d", perIter, service.DefaultInFlightSteps)
	const cap = 16 // pre-pool baseline ~112
	if perIter > cap {
		t.Errorf("steady-state pipelined step.Async: %.1f allocs/iter, want <= %d", perIter, cap)
	}
}

// TestDistSteadyStateMessagesAndBuffers pins two distributed steady-state
// properties at ranks 2, 4 and 7:
//
//   - the hoisted-exchange machinery changes WHEN exchanges post, never
//     how many: the step path's messages per timestep equal the
//     loop-at-a-time count on the stock airfoil schedule (the PR 3
//     finding — airfoil's schedule is already minimal — still holds),
//     and the per-iteration count is constant across windows; and
//   - timesteps allocate no message buffers from the very first one:
//     each step plan reserves its traffic when it compiles, so the
//     pool's Allocated (miss) counter stays at zero across every window,
//     the first included, while Requested keeps growing (every message
//     drew from the pool).
func TestDistSteadyStateMessagesAndBuffers(t *testing.T) {
	for _, ranks := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			app, err := airfoil.NewDistApp(30, 16, ranks)
			if err != nil {
				t.Fatal(err)
			}
			defer app.Close()
			window := func(iters int) (msgs, allocated, requested int64) {
				m0 := app.Rt.HaloMessagesSent()
				a0, r0 := app.Rt.HaloBufferStats()
				if _, err := app.Run(iters); err != nil {
					t.Fatal(err)
				}
				m1 := app.Rt.HaloMessagesSent()
				a1, r1 := app.Rt.HaloBufferStats()
				return m1 - m0, a1 - a0, r1 - r0
			}
			// No warm-up: the first window compiles the step plan, whose
			// reservation must cover every message from step 1 on.
			msgsA, allocA, reqA := window(5)
			msgsB, allocB, reqB := window(5)
			if msgsA != msgsB {
				t.Errorf("steady-state messages drift: %d then %d per 5 iters", msgsA, msgsB)
			}
			if allocA != 0 || allocB != 0 {
				t.Errorf("timesteps allocated %d then %d message buffers (want 0 from step 1 — the plan reserves its traffic)", allocA, allocB)
			}
			if ranks > 1 && (reqA == 0 || reqB == 0) {
				t.Errorf("no buffers requested (%d, %d): the pool observable is dead", reqA, reqB)
			}

			// Same mesh, loop-at-a-time: the step path must send exactly
			// as many messages per timestep (batching found nothing to
			// coalesce on airfoil, and hoisting must not split unions).
			laat, err := airfoil.NewDistApp(30, 16, ranks)
			if err != nil {
				t.Fatal(err)
			}
			defer laat.Close()
			laat.LoopAtATime = true
			if _, err := laat.Run(3); err != nil {
				t.Fatal(err)
			}
			m0 := laat.Rt.HaloMessagesSent()
			if _, err := laat.Run(5); err != nil {
				t.Fatal(err)
			}
			if laatMsgs := laat.Rt.HaloMessagesSent() - m0; laatMsgs != msgsA {
				t.Errorf("step path sent %d msgs/5 iters, loop-at-a-time %d — counts must match on airfoil", msgsA, laatMsgs)
			}
		})
	}
}

// TestAirfoilStepFusion asserts the stock airfoil timestep actually
// fuses under the Dataflow backend — two fused groups per timestep
// (save_soln+adt_calc and update+adt_calc), four loop occurrences
// absorbed — and that the runtime's StepStats counters observe the
// fused executions.
func TestAirfoilStepFusion(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	app, err := airfoil.NewApp(30, 16, rt)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	if _, err := app.Run(iters); err != nil {
		t.Fatal(err)
	}
	st := rt.StepStats()
	if st.Steps < iters {
		t.Errorf("StepStats.Steps = %d, want >= %d", st.Steps, iters)
	}
	if st.FusedGroups < 2*iters {
		t.Errorf("StepStats.FusedGroups = %d, want >= %d (2 per timestep)", st.FusedGroups, 2*iters)
	}
	if st.FusedLoops != 2*st.FusedGroups {
		t.Errorf("StepStats.FusedLoops = %d, want %d (2 loops per group)", st.FusedLoops, 2*st.FusedGroups)
	}
}

// TestFusedStepGoldenAcrossBackendsAndRanks is the fusion golden: the
// airfoil run with the step issued fused (Dataflow Step graph) must be
// bitwise-identical to the serial golden, to the unfused loop-at-a-time
// issue, and to the distributed runtime at ranks 1, 2, 4 and 7.
func TestFusedStepGoldenAcrossBackendsAndRanks(t *testing.T) {
	const nx, ny, iters = 30, 16, 4
	const wholeSet = 1 << 20

	type golden struct {
		rms uint64
		q   []uint64
	}
	capture := func(rms float64, q []float64) golden {
		g := golden{rms: math.Float64bits(rms)}
		for _, v := range q {
			g.q = append(g.q, math.Float64bits(v))
		}
		return g
	}
	check := func(t *testing.T, name string, got, ref golden) {
		t.Helper()
		if got.rms != ref.rms {
			t.Errorf("%s: rms differs bitwise from serial golden (%.17g vs %.17g)",
				name, math.Float64frombits(got.rms), math.Float64frombits(ref.rms))
		}
		for i := range ref.q {
			if got.q[i] != ref.q[i] {
				t.Fatalf("%s: q[%d] differs bitwise from serial golden", name, i)
			}
		}
	}

	runShared := func(backend op2.Backend, loopAtATime bool) golden {
		t.Helper()
		rt := op2.MustNew(
			op2.WithBackend(backend),
			op2.WithPoolSize(4),
			op2.WithChunker(op2.StaticChunk(wholeSet)),
		)
		defer rt.Close()
		app, err := airfoil.NewApp(nx, ny, rt)
		if err != nil {
			t.Fatal(err)
		}
		app.LoopAtATime = loopAtATime
		rms, err := app.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		return capture(rms, app.M.Q.Data())
	}

	ref := runShared(op2.Serial, false)
	check(t, "dataflow-fused-step", runShared(op2.Dataflow, false), ref)
	check(t, "dataflow-loop-at-a-time", runShared(op2.Dataflow, true), ref)
	check(t, "forkjoin-step", runShared(op2.ForkJoin, false), ref)

	for _, ranks := range []int{1, 2, 4, 7} {
		app, err := airfoil.NewDistApp(nx, ny, ranks)
		if err != nil {
			t.Fatal(err)
		}
		rms, err := app.Run(iters)
		if err != nil {
			app.Close()
			t.Fatal(err)
		}
		check(t, "distributed", capture(rms, app.Q()), ref)
		app.Close()
	}
}
