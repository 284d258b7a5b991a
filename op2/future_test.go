package op2_test

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"weak"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// TestPooledFuturesCollectableAfterSync pins that a synced pipeline
// leaves nothing of itself behind: nothing in the runtime may keep a
// vended step Future (or the pooled issue state it lives on) reachable
// once its block has been synced and the sync.Pools emptied by two
// collections. Every Future is held only weakly, so at the end the
// count of distinct ones still alive is what the runtime pins — a
// wrapper cache keyed by handle pins the whole last pipeline (about 300
// here).
func TestPooledFuturesCollectableAfterSync(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	app, err := airfoil.NewApp(60, 30, rt)
	if err != nil {
		t.Fatal(err)
	}
	step := app.StepGraph()
	ctx := context.Background()
	vended := map[weak.Pointer[op2.Future]]struct{}{}
	const blocks, steps = 5, 300
	for b := 0; b < blocks; b++ {
		for i := 0; i < steps; i++ {
			vended[weak.Make(step.Async(ctx))] = struct{}{}
		}
		if err := app.Sync(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
	}
	alive := 0
	for w := range vended {
		if w.Value() != nil {
			alive++
		}
	}
	t.Logf("%d of %d distinct futures alive after the last Sync", alive, len(vended))
	const most = 8
	if alive > most {
		t.Fatalf("%d futures still alive after Sync and two collections, want at most %d", alive, most)
	}
}

// TestFutureReadsOwnVerdictBeforeNextButOneAsync pins the Future
// contract for two back-to-back issues of one loop or step: both
// futures are distinct, both return nil, and each Wait returns only once
// its own issue's writes are complete. A host fence between the two
// issues drops the first issue's version-chain entries, so only the
// issuer's hold on its latest issue keeps that state from being handed
// to the second.
func TestFutureReadsOwnVerdictBeforeNextButOneAsync(t *testing.T) {
	for _, fence := range []bool{false, true} {
		for _, asStep := range []bool{false, true} {
			name := map[bool]string{false: "loop", true: "step"}[asStep]
			if fence {
				name += "/fenced"
			}
			t.Run(name, func(t *testing.T) {
				rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
				defer rt.Close()
				const n = 1024
				cells := op2.MustDeclSet(n, "cells")
				x := op2.MustDeclDat(cells, 1, nil, "x")
				xd := x.Data()
				var written atomic.Int64 // elements written, over every issue
				lp := rt.ParLoop("inc", cells, op2.DirectArg(x, op2.RW)).
					Body(rangeOnly(func(lo, hi int, _ []float64) {
						for i := lo; i < hi; i++ {
							xd[i]++
						}
						written.Add(int64(hi - lo))
					}))
				async := lp.Async
				if asStep {
					async = rt.Step("s").Then(lp).Async
				}
				ctx := context.Background()
				for round := int64(0); round < 50; round++ {
					f1 := async(ctx)
					if fence {
						if err := x.Sync(); err != nil {
							t.Fatal(err)
						}
					}
					f2 := async(ctx)
					if f1 == f2 {
						t.Fatalf("round %d: the second Async re-vended the first's future", round)
					}
					if err := f1.Wait(); err != nil {
						t.Fatalf("round %d: first Wait: %v", round, err)
					}
					if got, want := written.Load(), (2*round+1)*n; got < want {
						t.Fatalf("round %d: first Wait returned with %d elements written, want >= %d", round, got, want)
					}
					if err := f2.Wait(); err != nil {
						t.Fatalf("round %d: second Wait: %v", round, err)
					}
					if got, want := written.Load(), (2*round+2)*n; got != want {
						t.Fatalf("round %d: second Wait returned with %d elements written, want %d", round, got, want)
					}
					for i, v := range xd {
						if v != float64(2*round+2) {
							t.Fatalf("round %d: x[%d] = %v, want %d", round, i, v, 2*round+2)
						}
					}
				}
			})
		}
	}
}

// TestFailedFutureKeepsErrorAcrossIssues pins that a failed issue is
// never recycled: a future whose kernel panicked, issued and never
// waited, still returns the panic once many later issues have cycled
// the pools — those of an independent loop, and a healing re-issue of
// the failed loop itself.
func TestFailedFutureKeepsErrorAcrossIssues(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	cells := op2.MustDeclSet(256, "cells")
	a := op2.MustDeclDat(cells, 1, nil, "a")
	b := op2.MustDeclDat(cells, 1, nil, "b")
	ad, bd := a.Data(), b.Data()
	var cycles atomic.Int32
	bad := rt.ParLoop("bad", cells, op2.DirectArg(a, op2.Write)).
		Body(rangeOnly(func(lo, hi int, _ []float64) {
			if cycles.Load() == 0 {
				panic("kaboom")
			}
			for i := lo; i < hi; i++ {
				ad[i] = 1
			}
		}))
	good := rt.ParLoop("good", cells, op2.DirectArg(b, op2.RW)).
		Body(rangeOnly(func(lo, hi int, _ []float64) {
			for i := lo; i < hi; i++ {
				bd[i]++
			}
		}))
	ctx := context.Background()
	failed := bad.Async(ctx)
	for i := 0; i < 10; i++ {
		if err := good.Async(ctx).Wait(); err != nil {
			t.Fatalf("cycle %d of the independent loop: %v", i, err)
		}
	}
	<-failed.Done()
	cycles.Store(1)
	for i := 0; i < 3; i++ { // a direct Write heals the chain
		if err := bad.Async(ctx).Wait(); err != nil {
			t.Fatalf("re-issue %d of the failed loop: %v", i, err)
		}
	}
	if err := failed.Wait(); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("abandoned failed future: Wait = %v, want the kernel panic", err)
	}
}
