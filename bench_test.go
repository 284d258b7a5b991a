// Benchmarks reproducing the paper's application-level evaluation (§VI)
// through the public op2 facade: one testing.B entry per airfoil table
// and figure. Run them all with
//
//	go test -bench=. -benchmem
//
// The hpx-layer micro-benchmarks (Table I policies, the Fig. 19-20
// iterator bandwidth loops, scheduler and future overheads) live in
// internal/bench; cmd/experiments prints the full sweep tables with
// derived columns (speedups, improvement percentages, MB/s).
package op2hpx

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"op2hpx/internal/aero"
	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// benchMesh sizes the airfoil benchmarks: big enough to be memory-bound,
// small enough that the full suite completes in minutes.
const (
	benchNX    = 120
	benchNY    = 60
	benchIters = 5
)

// threadCounts is the strong-scaling x-axis: powers of two up to NumCPU.
func threadCounts() []int {
	var out []int
	for t := 1; t <= runtime.NumCPU(); t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != runtime.NumCPU() {
		out = append(out, runtime.NumCPU())
	}
	return out
}

// benchAirfoil measures app.Run(benchIters) under one configuration.
func benchAirfoil(b *testing.B, threads int, backend op2.Backend, chunker op2.Chunker, dist int) {
	b.Helper()
	rt := op2.MustNew(
		op2.WithBackend(backend),
		op2.WithPoolSize(threads),
		op2.WithChunker(chunker), // nil = backend default
		op2.WithPrefetchDistance(dist),
	)
	defer rt.Close()
	app, err := airfoil.NewApp(benchNX, benchNY, rt)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := app.Run(1); err != nil { // warm plans and calibration
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pc, ok := chunker.(*op2.PersistentAutoChunker); ok {
			pc.Reset()
		}
		if _, err := app.Run(benchIters); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15 measures airfoil execution time for the fork-join
// ("OpenMP") baseline versus the dataflow backend across thread counts —
// the data behind both Fig. 15 (times) and Fig. 16 (speedups).
func BenchmarkFig15(b *testing.B) {
	for _, th := range threadCounts() {
		b.Run(fmt.Sprintf("forkjoin/threads=%d", th), func(b *testing.B) {
			benchAirfoil(b, th, op2.ForkJoin, nil, 0)
		})
		b.Run(fmt.Sprintf("dataflow/threads=%d", th), func(b *testing.B) {
			benchAirfoil(b, th, op2.Dataflow, nil, 0)
		})
	}
}

// BenchmarkFig16 is the speedup view of the same comparison at the
// machine's full thread count (speedups are derived by cmd/experiments).
func BenchmarkFig16(b *testing.B) {
	th := runtime.NumCPU()
	b.Run("forkjoin", func(b *testing.B) { benchAirfoil(b, th, op2.ForkJoin, nil, 0) })
	b.Run("dataflow", func(b *testing.B) { benchAirfoil(b, th, op2.Dataflow, nil, 0) })
}

// BenchmarkFig17 measures the dataflow backend with independent auto
// chunking per loop versus one persistent_auto_chunk_size shared by all
// loops (§IV-B, Fig. 12).
func BenchmarkFig17(b *testing.B) {
	th := runtime.NumCPU()
	b.Run("auto", func(b *testing.B) {
		benchAirfoil(b, th, op2.Dataflow, op2.AutoChunk(), 0)
	})
	b.Run("persistent_auto", func(b *testing.B) {
		benchAirfoil(b, th, op2.Dataflow, op2.PersistentAutoChunk(), 0)
	})
}

// BenchmarkFig18 measures the dataflow backend with and without the §V
// prefetcher at the paper's best distance (15 cache lines).
func BenchmarkFig18(b *testing.B) {
	th := runtime.NumCPU()
	b.Run("noprefetch", func(b *testing.B) {
		benchAirfoil(b, th, op2.Dataflow, op2.PersistentAutoChunk(), 0)
	})
	b.Run("prefetch15", func(b *testing.B) {
		benchAirfoil(b, th, op2.Dataflow, op2.PersistentAutoChunk(), 15)
	})
}

// BenchmarkPlanConstruction measures OP2 plan building (blocking +
// coloring) for the airfoil res_calc loop — an ablation for the plan
// cache design choice. Each iteration builds a fresh runtime (empty plan
// cache) over the shared pool, so the first Step rebuilds the plan.
func BenchmarkPlanConstruction(b *testing.B) {
	consts := airfoil.DefaultConstants()
	mesh, err := airfoil.NewMesh(benchNX, benchNY, consts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := op2.MustNew(op2.WithBackend(op2.ForkJoin))
		app, err := airfoil.NewAppFromMesh(mesh, consts, rt)
		if err != nil {
			b.Fatal(err)
		}
		if err := app.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataflowChain measures issue+execute of a chain of dependent
// no-op loops — the per-loop overhead of dependency chaining through the
// public facade.
func BenchmarkDataflowChain(b *testing.B) {
	cells := op2.MustDeclSet(1024, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(runtime.NumCPU()))
	defer rt.Close()
	lp := rt.ParLoop("touch", cells, op2.DirectArg(d, op2.RW)).
		Body(rangeOnly(func(lo, hi int, _ []float64) {}))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Async(ctx)
	}
	if err := d.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationBlockSize sweeps the execution-plan block size of the
// colored res_calc loop: small blocks color easily but pay scheduling
// overhead; large blocks reduce overhead but inflate the color count.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, bs := range []int{32, 64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			rt := op2.MustNew(
				op2.WithBackend(op2.ForkJoin),
				op2.WithPoolSize(runtime.NumCPU()),
				op2.WithBlockSize(bs),
			)
			defer rt.Close()
			app, err := airfoil.NewApp(benchNX, benchNY, rt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := app.Run(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := app.Run(benchIters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRenumber compares the airfoil run on the generated
// cell numbering versus an RCM-renumbered mesh (locality optimization for
// the indirect loops).
func BenchmarkAblationRenumber(b *testing.B) {
	for _, renumber := range []bool{false, true} {
		name := "generated-order"
		if renumber {
			name = "rcm-renumbered"
		}
		b.Run(name, func(b *testing.B) {
			consts := airfoil.DefaultConstants()
			mesh, err := airfoil.NewMesh(benchNX, benchNY, consts)
			if err != nil {
				b.Fatal(err)
			}
			if renumber {
				perm, err := op2.RCMPermutation(mesh.Cells, []*op2.Map{mesh.Pecell, mesh.Pbecell})
				if err != nil {
					b.Fatal(err)
				}
				dats := []*op2.Dat{mesh.Q, mesh.Qold, mesh.Adt, mesh.Res}
				if err := op2.ApplyRenumber(mesh.Cells, perm, dats, []*op2.Map{mesh.Pecell, mesh.Pbecell}); err != nil {
					b.Fatal(err)
				}
			}
			rt := op2.MustNew(op2.WithBackend(op2.ForkJoin), op2.WithPoolSize(runtime.NumCPU()))
			defer rt.Close()
			app, err := airfoil.NewAppFromMesh(mesh, consts, rt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := app.Run(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := app.Run(benchIters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedRanks measures the owner-compute distributed
// engine (owned+halo storage, overlapped halo exchange) at increasing
// rank counts with the default block partitioner.
func BenchmarkDistributedRanks(b *testing.B) {
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			app, err := airfoil.NewDistApp(benchNX, benchNY, ranks)
			if err != nil {
				b.Fatal(err)
			}
			defer app.Close()
			if _, err := app.Run(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := app.Run(benchIters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAirfoilDistributed sweeps the distributed airfoil across
// ranks × partitioner — the subsystem's headline benchmark, recorded as
// BENCH_distributed.json by `cmd/experiments -exp dist -json`.
func BenchmarkAirfoilDistributed(b *testing.B) {
	for _, name := range []string{"block", "rcb", "greedy"} {
		p, err := op2.PartitionerByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(b *testing.B) {
				app, err := airfoil.NewDistAppPartitioned(benchNX, benchNY, ranks, p)
				if err != nil {
					b.Fatal(err)
				}
				defer app.Close()
				if _, err := app.Run(1); err != nil { // warm plans, halos, shards
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := app.Run(benchIters); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAeroCG measures the FEM/CG workload (per-iteration global
// reductions, the tightest host/runtime interplay in the repository)
// under each backend.
func BenchmarkAeroCG(b *testing.B) {
	const n = 64
	for _, cfg := range []struct {
		name    string
		backend op2.Backend
	}{
		{"serial", op2.Serial},
		{"forkjoin", op2.ForkJoin},
		{"dataflow", op2.Dataflow},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			rt := op2.MustNew(op2.WithBackend(cfg.backend), op2.WithPoolSize(runtime.NumCPU()))
			defer rt.Close()
			for i := 0; i < b.N; i++ {
				pr, err := aero.NewProblem(n, rt)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := pr.Solve(1e-9, 20000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStep measures the airfoil timestep issued as one Step graph
// versus loop-at-a-time, on the distributed runtime (batched halo
// exchanges, cross-loop increment overlap) and under the shared-memory
// dataflow backend. Halo messages per iteration are reported as a
// custom metric for the distributed cases.
func BenchmarkStep(b *testing.B) {
	const ranks = 4
	for _, mode := range []struct {
		name        string
		loopAtATime bool
	}{
		{"batched", false},
		{"loop-at-a-time", true},
	} {
		b.Run("dist/"+mode.name, func(b *testing.B) {
			app, err := airfoil.NewDistApp(benchNX, benchNY, ranks)
			if err != nil {
				b.Fatal(err)
			}
			defer app.Close()
			app.LoopAtATime = mode.loopAtATime
			if _, err := app.Run(1); err != nil { // warm plans, shards, halos
				b.Fatal(err)
			}
			before := app.Rt.HaloMessagesSent()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := app.Run(benchIters); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			iters := float64(b.N * benchIters)
			b.ReportMetric(float64(app.Rt.HaloMessagesSent()-before)/iters, "msgs/iter")
		})
	}
	b.Run("dataflow/batched", func(b *testing.B) {
		rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(runtime.NumCPU()))
		defer rt.Close()
		app, err := airfoil.NewApp(benchNX, benchNY, rt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.Run(1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := app.Run(benchIters); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHotPath measures the steady-state issue path after the
// compiled-loop executor and step-level direct-loop fusion: a single
// direct Body loop (the 0 allocs/op hot path), and the airfoil timestep
// with the Step graph (fused) versus loop-at-a-time issue. Run with
// -benchmem: allocs/op is the headline number — recorded as
// BENCH_hotpath.json by `cmd/experiments -exp hotpath -json`.
func BenchmarkHotPath(b *testing.B) {
	for _, backend := range []op2.Backend{op2.Serial, op2.Dataflow} {
		b.Run("direct-loop/"+backend.String(), func(b *testing.B) {
			rt := op2.MustNew(op2.WithBackend(backend), op2.WithPoolSize(runtime.NumCPU()))
			defer rt.Close()
			const n = 1 << 16
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
			if err := lp.Run(ctx); err != nil { // compile + warm pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lp.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, mode := range []struct {
		name        string
		loopAtATime bool
	}{
		{"step-fused", false},
		{"loop-at-a-time", true},
	} {
		b.Run("airfoil/dataflow/"+mode.name, func(b *testing.B) {
			rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(runtime.NumCPU()))
			defer rt.Close()
			app, err := airfoil.NewApp(benchNX, benchNY, rt)
			if err != nil {
				b.Fatal(err)
			}
			app.LoopAtATime = mode.loopAtATime
			if _, err := app.Run(1); err != nil { // warm plans, compiled loops
				b.Fatal(err)
			}
			fusedBefore := rt.StepStats().FusedGroups
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := app.Run(benchIters); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			iters := float64(b.N * benchIters)
			b.ReportMetric(float64(rt.StepStats().FusedGroups-fusedBefore)/iters, "fused/iter")
		})
	}
}

// BenchmarkHotPathAsync measures the pooled asynchronous issue path:
// the ping-pong Async of a direct Body loop (the 0 allocs/op guarantee,
// enforced by TestSteadyStateAsyncLoopZeroAlloc), the pipelined airfoil
// timestep issued with step.Async on the Dataflow backend, and the same
// pipelined timestep on a distributed runtime at 2 ranks. Run with
// -benchmem: allocs/op per issue (ping-pong) or per timestep
// (pipelines) is the headline number, recorded in BENCH_hotpath.json.
func BenchmarkHotPathAsync(b *testing.B) {
	ctx := context.Background()
	for _, backend := range []op2.Backend{op2.Serial, op2.Dataflow} {
		b.Run("async-loop/"+backend.String(), func(b *testing.B) {
			rt := op2.MustNew(op2.WithBackend(backend), op2.WithPoolSize(runtime.NumCPU()))
			defer rt.Close()
			const n = 1 << 16
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
			for i := 0; i < 4; i++ { // warm pools, plans, issue states
				if err := lp.Async(ctx).Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lp.Async(ctx).Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("airfoil-step-async/dataflow", func(b *testing.B) {
		rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(runtime.NumCPU()))
		defer rt.Close()
		app, err := airfoil.NewApp(benchNX, benchNY, rt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.Run(benchIters); err != nil { // warm to pipeline depth
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := app.Run(benchIters); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N*benchIters)
		b.ReportMetric(perOp, "ns/iter")
	})
	b.Run("airfoil-step-async/distributed-r2", func(b *testing.B) {
		app, err := airfoil.NewDistApp(benchNX, benchNY, 2)
		if err != nil {
			b.Fatal(err)
		}
		defer app.Close()
		if _, err := app.Run(benchIters); err != nil { // warm: plans, buffer pools
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := app.Run(benchIters); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkService measures the simulation service end to end: each op
// submits N concurrent airfoil jobs (isolated Dataflow runtimes, shared
// pool, round-robin step issue) and waits for all of them — job setup
// included, the jobs/sec quantity cmd/experiments -exp service reports.
// CI runs it with -benchtime=1x as a smoke test of the whole
// submit→schedule→retire→collect path.
func BenchmarkService(b *testing.B) {
	for _, jobs := range []int{1, 4} {
		b.Run(fmt.Sprintf("jobs-%d", jobs), func(b *testing.B) {
			sv := op2.NewService(op2.ServiceConfig{MaxResidentJobs: jobs})
			defer sv.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				handles := make([]*op2.JobHandle, 0, jobs)
				for j := 0; j < jobs; j++ {
					h, err := sv.Submit(ctx, airfoil.Job(fmt.Sprintf("b%d-%d", i, j),
						benchNX, benchNY, benchIters, op2.WithBackend(op2.Dataflow)))
					if err != nil {
						b.Fatal(err)
					}
					handles = append(handles, h)
				}
				for _, h := range handles {
					if _, err := h.Result(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N*jobs*benchIters)
			b.ReportMetric(perIter, "ns/job-iter")
		})
	}
}

// BenchmarkObs measures the observability layer's cost on the airfoil
// step hot path: the same pipelined Dataflow timestep with the layer
// off (one nil check per loop), with a metrics registry attached
// (latency histograms + step counters, zero allocations per observe)
// and with metrics plus span tracing. The acceptance bar is
// single-digit percent overhead for the metrics mode — recorded as
// BENCH_obs.json by `cmd/experiments -exp obs -json`.
func BenchmarkObs(b *testing.B) {
	modes := []struct {
		name string
		opts []op2.Option
	}{
		{"off", nil},
		{"metrics", []op2.Option{op2.WithMetrics()}},
		{"metrics+trace", []op2.Option{op2.WithMetrics(), op2.WithTracing(1 << 16)}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			opts := append([]op2.Option{
				op2.WithBackend(op2.Dataflow),
				op2.WithPoolSize(runtime.NumCPU()),
			}, mode.opts...)
			rt := op2.MustNew(opts...)
			defer rt.Close()
			app, err := airfoil.NewApp(benchNX, benchNY, rt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := app.Run(1); err != nil { // warm plans, pools, metric handles
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := app.Run(benchIters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rangeOnly binds a RangeBody that captures the host arrays itself.
func rangeOnly(f op2.RangeBody) op2.Binder { return func(op2.Bind) op2.RangeBody { return f } }
