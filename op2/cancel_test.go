package op2_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"op2hpx/op2"
)

// TestRunPreCanceledContext: a loop invoked with an already-canceled
// context must not execute at all and must report ErrCanceled on every
// backend.
func TestRunPreCanceledContext(t *testing.T) {
	for _, b := range []op2.Backend{op2.Serial, op2.ForkJoin, op2.Dataflow} {
		rt := op2.MustNew(op2.WithBackend(b), op2.WithPoolSize(2))
		cells := op2.MustDeclSet(1024, "cells")
		d := op2.MustDeclDat(cells, 1, nil, "d")
		ran := false
		lp := rt.ParLoop("touch", cells, op2.DirectArg(d, op2.Write)).
			Kernel(func(v [][]float64) { ran = true })

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := lp.Run(ctx)
		if !errors.Is(err, op2.ErrCanceled) {
			t.Fatalf("%v: err = %v, want ErrCanceled", b, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want to also satisfy context.Canceled", b, err)
		}
		if ran {
			t.Fatalf("%v: kernel ran under a pre-canceled context", b)
		}
		rt.Close()
	}
}

// TestRunObservesMidLoopCancellation: a long loop already executing must
// observe cancellation between chunks, stop scheduling the remaining
// work, and return ErrCanceled.
func TestRunObservesMidLoopCancellation(t *testing.T) {
	const n = 4096
	rt := op2.MustNew(
		op2.WithBackend(op2.ForkJoin),
		op2.WithPoolSize(1),
		op2.WithChunker(op2.StaticChunk(1)),
	)
	defer rt.Close()
	cells := op2.MustDeclSet(n, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var executed int
	lp := rt.ParLoop("slow", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) {
			executed++
			once.Do(func() {
				close(started)
				<-release // hold the first chunk until the test cancels
			})
		})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- lp.Run(ctx) }()

	<-started // the loop is mid-execution now
	cancel()  // ...and the context dies under it
	close(release)

	select {
	case err := <-done:
		if !errors.Is(err, op2.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled loop did not return")
	}
	if executed >= n {
		t.Fatalf("all %d elements executed despite cancellation", n)
	}
}

// TestAsyncCancellationWhileWaitingOnDependencies: a dataflow loop whose
// dependencies never resolve before cancellation must resolve its future
// with ErrCanceled without executing; the blocking producer is unaffected.
func TestAsyncCancellationWhileWaitingOnDependencies(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	cells := op2.MustDeclSet(8, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")

	release := make(chan struct{})
	producer := rt.ParLoop("producer", cells, op2.DirectArg(d, op2.Write)).
		Body(rangeOnly(func(lo, hi int, _ []float64) { <-release }))
	consumerRan := false
	consumer := rt.ParLoop("consumer", cells, op2.DirectArg(d, op2.RW)).
		Kernel(func(v [][]float64) { consumerRan = true })

	bg := context.Background()
	ctx, cancel := context.WithCancel(bg)
	pf := producer.Async(bg)
	cf := consumer.Async(ctx)

	cancel() // consumer is still waiting on producer's future
	if err := cf.Wait(); !errors.Is(err, op2.ErrCanceled) {
		t.Fatalf("consumer err = %v, want ErrCanceled", err)
	}
	if consumerRan {
		t.Fatal("consumer body ran despite cancellation")
	}

	close(release) // the producer itself finishes normally
	if err := pf.Wait(); err != nil {
		t.Fatalf("producer err = %v", err)
	}
}

// TestWriteLoopHealsCanceledChain: a canceled loop leaves an errored
// future in its dats' version chains, so reads keep failing — but a
// subsequent Write loop overwrites the data, must succeed (its WAW edge
// orders execution without propagating the failure), and heals the chain
// for everything after it.
func TestWriteLoopHealsCanceledChain(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	const n = 64
	cells := op2.MustDeclSet(n, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")
	ctx := context.Background()

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	poison := rt.ParLoop("poison", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = -1 })
	if err := poison.Run(canceled); !errors.Is(err, op2.ErrCanceled) {
		t.Fatalf("poison err = %v, want ErrCanceled", err)
	}

	// Reads now see the poisoned chain...
	read := rt.ParLoop("read", cells, op2.DirectArg(d, op2.Read)).
		Kernel(func(v [][]float64) {})
	if err := read.Run(ctx); !errors.Is(err, op2.ErrCanceled) {
		t.Fatalf("read through poisoned chain: err = %v, want dependency ErrCanceled", err)
	}

	// ...but a pure Write loop overwrites the data and heals the chain.
	heal := rt.ParLoop("heal", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 5 })
	if err := heal.Run(ctx); err != nil {
		t.Fatalf("healing write failed: %v", err)
	}
	if err := read.Run(ctx); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
	for i, v := range d.Data() {
		if v != 5 {
			t.Fatalf("d[%d] = %g, want 5", i, v)
		}
	}
}

// TestIndirectWriteDoesNotHealPoisonedChain: only a *direct* Write loop
// overwrites a whole dat; a map-indirect Write covers just the mapped
// subset, so a failed predecessor must still propagate through it —
// otherwise readers downstream would consume the untouched, undefined
// elements with a clean chain.
func TestIndirectWriteDoesNotHealPoisonedChain(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	nodes := op2.MustDeclSet(16, "nodes")
	some := op2.MustDeclSet(4, "some")
	m := op2.MustDeclMap(some, nodes, 1, []int32{0, 1, 2, 3}, "m")
	d := op2.MustDeclDat(nodes, 1, nil, "d")
	ctx := context.Background()

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	poison := rt.ParLoop("poison", nodes, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = -1 })
	if err := poison.Run(canceled); !errors.Is(err, op2.ErrCanceled) {
		t.Fatalf("poison err = %v, want ErrCanceled", err)
	}

	partial := rt.ParLoop("partial", some, op2.DatArg(d, 0, m, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 9 })
	if err := partial.Run(ctx); !errors.Is(err, op2.ErrCanceled) {
		t.Fatalf("indirect write through poisoned chain: err = %v, want propagated ErrCanceled", err)
	}
}

// TestCanceledLoopFutureWaitsForPredecessors: a loop canceled while
// waiting on its dependencies must not resolve its (already recorded)
// future before those dependencies resolve — otherwise a successor Write
// would treat the resource as quiet and race a predecessor that is still
// executing. The caller unblocks immediately; the future drains first.
func TestCanceledLoopFutureWaitsForPredecessors(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	const n = 64
	cells := op2.MustDeclSet(n, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")
	bg := context.Background()

	release := make(chan struct{})
	producer := rt.ParLoop("producer", cells, op2.DirectArg(d, op2.Write)).
		Body(rangeOnly(func(lo, hi int, _ []float64) {
			<-release
			for i := lo; i < hi; i++ {
				d.Data()[i] = 1
			}
		}))
	victim := rt.ParLoop("victim", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { t.Error("victim body ran despite cancellation") })
	heal := rt.ParLoop("heal", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 5 })

	pf := producer.Async(bg) // blocked mid-body on release
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if err := victim.Run(canceled); !errors.Is(err, op2.ErrCanceled) {
		t.Fatalf("victim err = %v, want ErrCanceled", err)
	}
	hf := heal.Async(bg)
	time.Sleep(50 * time.Millisecond)
	if hf.Ready() {
		t.Fatal("heal completed while its transitive predecessor was still executing")
	}

	close(release)
	if err := pf.Wait(); err != nil {
		t.Fatalf("producer err = %v", err)
	}
	if err := hf.Wait(); err != nil {
		t.Fatalf("heal err = %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for i, v := range d.Data() {
		if v != 5 {
			t.Fatalf("d[%d] = %g, want 5 (heal must land after the producer)", i, v)
		}
	}
}

// TestAsyncCancelMidChainDrainsBeforeResolving pins the ordering
// invariant of the continuation-based failAfterDeps replacement on the
// ASYNC path: a loop canceled while waiting on its dependencies fails
// its caller-facing future promptly, but its chain future — already
// recorded as its resources' new version — resolves only after the
// chain beneath it has drained. A successor issued behind the canceled
// loop must therefore never observe a quiet chain while the producer at
// the head of the chain is still executing. Runs under -race (no
// allocation accounting), which is where the pooled issue states'
// reference counting earns its keep.
func TestAsyncCancelMidChainDrainsBeforeResolving(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	const n = 64
	cells := op2.MustDeclSet(n, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")
	bg := context.Background()

	release := make(chan struct{})
	producer := rt.ParLoop("producer", cells, op2.DirectArg(d, op2.Write)).
		Body(rangeOnly(func(lo, hi int, _ []float64) {
			<-release
			for i := lo; i < hi; i++ {
				d.Data()[i] = 1
			}
		}))
	victim := rt.ParLoop("victim", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { t.Error("victim body ran despite cancellation") })
	heal := rt.ParLoop("heal", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 7 })

	pf := producer.Async(bg) // blocked mid-body on release
	ctx, cancel := context.WithCancel(bg)
	vf := victim.Async(ctx) // chained behind the producer
	cancel()

	// The user future fails promptly — the producer is still blocked.
	if err := vf.Wait(); !errors.Is(err, op2.ErrCanceled) {
		t.Fatalf("victim err = %v, want ErrCanceled", err)
	}

	// But the successor behind the victim's (recorded) chain future must
	// not run yet: the chain is still draining through the producer.
	hf := heal.Async(bg)
	time.Sleep(50 * time.Millisecond)
	if hf.Ready() {
		t.Fatal("successor observed the canceled loop's chain quiet while the producer was still executing")
	}

	close(release)
	if err := pf.Wait(); err != nil {
		t.Fatalf("producer err = %v", err)
	}
	if err := hf.Wait(); err != nil {
		t.Fatalf("heal err = %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for i, v := range d.Data() {
		if v != 7 {
			t.Fatalf("d[%d] = %g, want 7 (heal must land after the drained chain)", i, v)
		}
	}
}

// TestDataflowRunCancellationMidColor: the synchronous Run path under the
// Dataflow backend aborts an indirect (colored) loop between colors.
func TestDataflowRunCancellationMidColor(t *testing.T) {
	const nedges, nnodes = 2048, 512
	edgeMap := make([]int32, 2*nedges)
	for e := 0; e < nedges; e++ {
		edgeMap[2*e] = int32(e % nnodes)
		edgeMap[2*e+1] = int32((e + 1) % nnodes)
	}
	nodes := op2.MustDeclSet(nnodes, "nodes")
	edges := op2.MustDeclSet(nedges, "edges")
	pedge := op2.MustDeclMap(edges, nodes, 2, edgeMap, "pedge")
	u := op2.MustDeclDat(nodes, 1, nil, "u")

	rt := op2.MustNew(
		op2.WithBackend(op2.Dataflow),
		op2.WithPoolSize(1),
		op2.WithChunker(op2.StaticChunk(1)),
	)
	defer rt.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	lp := rt.ParLoop("scatter", edges,
		op2.DatArg(u, 0, pedge, op2.Inc),
		op2.DatArg(u, 1, pedge, op2.Inc),
	).Kernel(func(v [][]float64) {
		once.Do(func() {
			close(started)
			<-release
		})
		v[0][0]++
		v[1][0]++
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- lp.Run(ctx) }()
	<-started
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, op2.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled colored loop did not return")
	}
}
