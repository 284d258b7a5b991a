package op2_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// TestMaxInFlightStepsBoundsIssueDepth proves the backpressure knob
// semantically: with a cap of 2 and the first issue blocked mid-kernel,
// the second Async returns immediately but the third parks in reserve
// until the first resolves — the issuing goroutine cannot run ahead of
// execution by more than the cap.
func TestMaxInFlightStepsBoundsIssueDepth(t *testing.T) {
	rt := op2.MustNew(
		op2.WithBackend(op2.Dataflow),
		op2.WithPoolSize(2),
		op2.WithMaxInFlightSteps(2),
		op2.WithChunker(op2.StaticChunk(1<<20)), // one chunk: the body blocks once per issue
	)
	defer rt.Close()
	const n = 64
	cells := op2.MustDeclSet(n, "cells")
	x := op2.MustDeclDat(cells, 1, nil, "x")
	xd := x.Data()

	release := make(chan struct{}, 3)
	lp := rt.ParLoop("blocker", cells,
		op2.DirectArg(x, op2.RW),
	).Body(rangeOnly(func(lo, hi int, _ []float64) {
		<-release
		for i := lo; i < hi; i++ {
			xd[i]++
		}
	}))

	ctx := context.Background()
	f1 := lp.Async(ctx) // starts executing, blocks in the body
	f2 := lp.Async(ctx) // chained behind f1, issue returns immediately

	var thirdIssued atomic.Bool
	issued := make(chan *op2.Future)
	go func() { // sequential handoff: the main goroutine issues no more loops
		f := lp.Async(ctx) // must park in reserve until f1 resolves
		thirdIssued.Store(true)
		issued <- f
	}()

	time.Sleep(50 * time.Millisecond)
	if thirdIssued.Load() {
		t.Fatal("third Async returned while two issues were in flight under a cap of 2")
	}

	release <- struct{}{} // f1 completes; reserve unblocks
	f3 := <-issued
	release <- struct{}{}
	release <- struct{}{}
	if err := op2.WaitAll(f1, f2, f3); err != nil {
		t.Fatal(err)
	}
	if err := x.Sync(); err != nil {
		t.Fatal(err)
	}
	if xd[0] != 3 {
		t.Fatalf("x[0] = %v after three increments, want 3", xd[0])
	}
}

// TestBackpressureCapsColdPipelineFillAllocs pins the cold-fill cost the
// cap retires: an UNCAPPED 50-deep airfoil pipeline pays ~166
// allocs/iteration on its first window while the issue-state,
// dependency-node and future pools grow to the pipeline's peak depth;
// with WithMaxInFlightSteps(4) the pools stop growing at depth 4 and the
// same cold window costs ~21 allocs/iteration (plan compilation
// included), converging to the same warm steady state (~3).
func TestBackpressureCapsColdPipelineFillAllocs(t *testing.T) {
	noGC(t)
	const nx, ny, iters = 30, 16, 50

	window := func(app *airfoil.App) float64 {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := app.Run(iters); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / iters
	}

	newApp := func(k int) (*airfoil.App, *op2.Runtime) {
		t.Helper()
		rt := op2.MustNew(
			op2.WithBackend(op2.Dataflow),
			op2.WithPoolSize(2),
			op2.WithMaxInFlightSteps(k),
		)
		app, err := airfoil.NewApp(nx, ny, rt)
		if err != nil {
			t.Fatal(err)
		}
		return app, rt
	}

	appU, rtU := newApp(0)
	defer rtU.Close()
	coldUncapped := window(appU)

	appC, rtC := newApp(4)
	defer rtC.Close()
	coldCapped := window(appC)
	warmCapped := window(appC)

	// Absolute bounds (measured ~21 cold, ~3 warm; generous headroom).
	const coldCap, warmCap = 60, 32
	if coldCapped > coldCap {
		t.Errorf("capped cold fill: %.1f allocs/iter, want <= %d", coldCapped, coldCap)
	}
	if warmCapped > warmCap {
		t.Errorf("capped warm window: %.1f allocs/iter, want <= %d", warmCapped, warmCap)
	}
	// Relative proof that the cap is what retires the fill cost: the
	// uncapped pipeline's cold window (~166 allocs/iter) must stay well
	// above the capped one, or the baseline this test guards is gone.
	if coldCapped*2 > coldUncapped {
		t.Errorf("capped cold fill %.1f allocs/iter is not well below uncapped %.1f — the backpressure knob no longer bounds pool growth",
			coldCapped, coldUncapped)
	}
}
