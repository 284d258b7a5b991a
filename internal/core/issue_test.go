package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"op2hpx/internal/hpx"
)

// TestPipelinedFusedStepStress hammers the pooled issue path's recycling
// with a deeply pipelined fused step: thousands of Async issues of a
// two-loop fused group whose dependencies are the previous iteration's
// members. This is the interleaving that once deadlocked — a gathered
// predecessor state recycling mid-issue and being re-acquired by the
// very issue subscribing to it (an issue unit is acquired once, before
// it gathers, and subscribes before it records). Run under -race.
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

// TestStepCompileFailureJoinsIssuedMembers: a step whose later group
// fails to compile fails its future with the compile error, while the
// occurrences issued before it still run and are consumed by the step's
// completion scan.
func TestStepCompileFailureJoinsIssuedMembers(t *testing.T) {
	cells := MustDeclSet(8, "cells")
	nodes := MustDeclSet(4, "nodes")
	m := MustDeclMap(cells, nodes, 1, []int32{0, 1, 2, 3, 0, 1, 2, 3}, "m")
	d := MustDeclDat(cells, 1, nil, "d")
	n := MustDeclDat(nodes, 1, nil, "n")
	ex := NewExecutor(Config{Backend: Dataflow})
	w := &Loop{Name: "w", Set: cells,
		Args:   []Arg{ArgDat(d, IDIdx, nil, RW)},
		Kernel: func(v [][]float64) { v[0][0]++ }}
	inc := &Loop{Name: "inc", Set: cells,
		Args:   []Arg{ArgDat(d, IDIdx, nil, Read), ArgDat(n, 0, m, Inc)},
		Kernel: func(v [][]float64) { v[1][0] += v[0][0] }}
	sp, err := BuildStepPlan("s", []*Loop{w, inc})
	if err != nil {
		t.Fatal(err)
	}
	// Every loop compiles a plan: compile w while the block size is
	// valid, then break it so only inc, compiled at its first issue,
	// fails.
	if _, err := ex.compiled(w); err != nil {
		t.Fatal(err)
	}
	ex.cfg.BlockSize = -1
	const reps = 3
	futs := make([]Future, reps)
	for i := range futs {
		futs[i] = ex.RunStepAsyncCtx(context.Background(), sp)
	}
	for _, f := range futs {
		if err := f.Wait(); err == nil || !strings.Contains(err.Error(), "block size") {
			t.Fatalf("step verdict = %v, want the plan's block-size error", err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Data() {
		if v != reps {
			t.Fatalf("d[%d] = %g, want %d: the issued member did not run every step", i, v, reps)
		}
	}
}

// TestHostFenceImpliesLoopFutureReady pins the resolution order of a
// settling loop: its user future resolves before its chain future. The
// chain is what host fences (Dat.Sync) and successors wait on, so
// resolving it last means a caller that saw the fence pass can never
// find the loop's own future still pending. A continuation on the chain
// runs on the resolving goroutine, inside the resolution, which makes
// the check deterministic.
func TestHostFenceImpliesLoopFutureReady(t *testing.T) {
	cells, _ := DeclSet(16, "cells")
	d, _ := DeclDat(cells, 1, nil, "d")
	ex := NewExecutor(Config{Backend: Dataflow, Chunker: hpx.StaticChunker(1 << 20)})
	hold := make(chan struct{})
	w := &Loop{Name: "w", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			<-hold
			for i := lo; i < hi; i++ {
				d.data[i] = 1
			}
		})}
	fut := ex.RunAsync(w)

	d.state.mu.Lock()
	chain := d.state.lastWrite
	d.state.mu.Unlock()
	if chain == nil {
		t.Fatal("the issued loop recorded no chain future on d")
	}
	readyAtFence := make(chan bool, 1)
	c := &hpx.Continuation{Fire: func(error) { readyAtFence <- fut.Ready() }}
	if !chain.lco.Subscribe(c) {
		t.Fatal("chain future resolved while the kernel was held")
	}
	close(hold)
	if !<-readyAtFence {
		t.Fatal("the chain future resolved before the loop's own future: a host fence can pass while the loop future reads not ready")
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestUnwaitedIssueRecycles pins that a caller's handle holds no
// reference on its pooled state: a loop issue and a step join that
// nobody waits drop to zero references once they have resolved, their
// chain entries are displaced (here by a host fence) and the next issue
// of the same loop or step has taken over the hold on its latest issue —
// while that latest issue keeps exactly the hold.
func TestUnwaitedIssueRecycles(t *testing.T) {
	cells, _ := DeclSet(64, "cells")
	d, _ := DeclDat(cells, 1, nil, "d")
	ex := NewExecutor(Config{Backend: Dataflow, Chunker: hpx.StaticChunker(1 << 20)})
	l := &Loop{Name: "inc", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, RW)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			for i := lo; i < hi; i++ {
				d.data[i]++
			}
		})}
	sp, err := BuildStepPlan("s", []*Loop{l})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ex.compiled(l)
	if err != nil {
		t.Fatal(err)
	}
	settles := func(what string, refs func() int32, want int32) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); refs() != want; {
			if time.Now().After(deadline) {
				t.Fatalf("%s holds %d references, want %d", what, refs(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		ex.RunAsyncCtx(ctx, l)
		first := cl.held
		ex.RunAsyncCtx(ctx, l)
		second := cl.held
		ex.RunStepAsyncCtx(ctx, sp)
		firstStep := sp.held
		ex.RunStepAsyncCtx(ctx, sp)
		secondStep := sp.held
		if first == second || firstStep == secondStep {
			t.Fatalf("round %d: a second issue reused the held state", round)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		settles("the first loop issue", first.refs.Load, 0)
		settles("the latest loop issue", second.refs.Load, 1)
		settles("the first step join", firstStep.refs.Load, 0)
		settles("the latest step join", secondStep.refs.Load, 1)
	}
}
