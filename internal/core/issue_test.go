package core

import (
	"context"
	"testing"
	"time"

	"op2hpx/internal/hpx"
)

// TestPipelinedFusedStepStress hammers the pooled issue path's recycling
// with a deeply pipelined fused step: thousands of Async issues of a
// two-loop fused group whose dependencies are the previous iteration's
// members. This is the interleaving that once deadlocked — a gathered
// predecessor state recycling mid-issue and being re-acquired as a
// member of the very group subscribing to it (the fix subscribes the
// union dependencies before any member acquisition). Run under -race.
func TestPipelinedFusedStepStress(t *testing.T) {
	cells, _ := DeclSet(64, "cells")
	d, _ := DeclDat(cells, 1, nil, "d")
	ex := NewExecutor(Config{Backend: Dataflow, Chunker: hpx.StaticChunker(1 << 20)})
	w := &Loop{Name: "w", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			for i := lo; i < hi; i++ {
				d.data[i] = 1
			}
		})}
	r := &Loop{Name: "r", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, RW)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			for i := lo; i < hi; i++ {
				d.data[i] += 1
			}
		})}
	sp, err := BuildStepPlan("s", []*Loop{w, r})
	if err != nil {
		t.Fatal(err)
	}
	if sp.FusedGroups() != 1 {
		t.Fatalf("fixture did not fuse: %d groups", sp.FusedGroups())
	}
	const iters = 20000
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		var last Future
		for i := 0; i < iters; i++ {
			last = ex.RunStepAsyncCtx(ctx, sp)
			if i%512 == 0 { // periodically drain so states recycle mid-run
				if err := last.Wait(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- last.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("pipelined fused steps deadlocked (issue-state recycling ABA?)")
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, v := range d.data {
		if v != 2 {
			t.Fatalf("d[%d] = %g, want 2", i, v)
		}
	}
}
