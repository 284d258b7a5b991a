package op2_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"op2hpx/op2"
)

func TestDeclValidationErrors(t *testing.T) {
	if _, err := op2.DeclSet(-1, "s"); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("negative set size: %v", err)
	}
	s := op2.MustDeclSet(4, "s")
	if _, err := op2.DeclDat(s, 0, nil, "d"); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("zero-dim dat: %v", err)
	}
	if _, err := op2.DeclMap(s, s, 2, []int32{0, 1}, "m"); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("short map table: %v", err)
	}
	if _, err := op2.DeclGlobal(0, nil, "g"); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("zero-dim global: %v", err)
	}
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := op2.New(op2.WithBackend(op2.Backend(42))); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("bad backend: %v", err)
	}
	if _, err := op2.New(op2.WithPoolSize(-1)); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("negative pool: %v", err)
	}
	if _, err := op2.New(op2.WithPrefetchDistance(-2)); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("negative prefetch: %v", err)
	}
	rt, err := op2.New(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(3))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Backend() != op2.Dataflow {
		t.Fatalf("backend = %v", rt.Backend())
	}
	if rt.PoolSize() != 3 {
		t.Fatalf("pool size = %d", rt.PoolSize())
	}
}

func TestLoopValidationErrors(t *testing.T) {
	rt := op2.MustNew()
	defer rt.Close()
	cells := op2.MustDeclSet(8, "cells")
	nodes := op2.MustDeclSet(4, "nodes")
	d := op2.MustDeclDat(nodes, 1, nil, "d")
	ctx := context.Background()

	// A dat on the wrong set.
	lp := rt.ParLoop("bad", cells, op2.DirectArg(d, op2.Read)).
		Kernel(func(v [][]float64) {})
	if err := lp.Run(ctx); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("wrong-set arg: %v", err)
	}
	// The async path reports the same classified error via the future.
	if err := lp.Async(ctx).Wait(); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("wrong-set arg (async): %v", err)
	}
	// A loop with no kernel at all.
	empty := rt.ParLoop("empty", cells)
	if err := empty.Run(ctx); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("kernel-less loop: %v", err)
	}
}

func TestRunAndAsyncAgree(t *testing.T) {
	const n = 1000
	ctx := context.Background()
	results := map[string]float64{}
	for _, mode := range []string{"run", "async"} {
		rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(4))
		cells := op2.MustDeclSet(n, "cells")
		d := op2.MustDeclDat(cells, 1, nil, "d")
		sum := op2.MustDeclGlobal(1, nil, "sum")
		fill := rt.ParLoop("fill", cells, op2.DirectArg(d, op2.Write)).
			Body(rangeOnly(func(lo, hi int, _ []float64) {
				for i := lo; i < hi; i++ {
					d.Data()[i] = float64(i)
				}
			}))
		reduce := rt.ParLoop("reduce", cells,
			op2.DirectArg(d, op2.Read),
			op2.GblArg(sum, op2.Inc),
		).Kernel(func(v [][]float64) { v[1][0] += v[0][0] })

		if mode == "run" {
			if err := fill.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if err := reduce.Run(ctx); err != nil {
				t.Fatal(err)
			}
		} else {
			fill.Async(ctx)
			reduce.Async(ctx)
		}
		if err := sum.Sync(); err != nil {
			t.Fatal(err)
		}
		results[mode] = sum.Data()[0]
		rt.Close()
	}
	want := float64(n*(n-1)) / 2
	for mode, got := range results {
		if got != want {
			t.Fatalf("%s: sum = %g, want %g", mode, got, want)
		}
	}
}

func TestMixedRunAndAsyncChainInProgramOrder(t *testing.T) {
	// Run under Dataflow must chain into the same dependency DAG that
	// Async builds: async-write then sync-increment then async-scale
	// must observe program order.
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	const n = 256
	cells := op2.MustDeclSet(n, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")
	ctx := context.Background()

	write := rt.ParLoop("write", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 3 })
	incr := rt.ParLoop("incr", cells, op2.DirectArg(d, op2.RW)).
		Kernel(func(v [][]float64) { v[0][0]++ })
	scale := rt.ParLoop("scale", cells, op2.DirectArg(d, op2.RW)).
		Kernel(func(v [][]float64) { v[0][0] *= 10 })

	write.Async(ctx)
	if err := incr.Run(ctx); err != nil { // blocks until write+incr done
		t.Fatal(err)
	}
	scale.Async(ctx)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Data() {
		if v != 40 {
			t.Fatalf("d[%d] = %g, want 40 ((3+1)*10)", i, v)
		}
	}
}

func TestProfiling(t *testing.T) {
	rt := op2.MustNew(op2.WithProfiling())
	defer rt.Close()
	cells := op2.MustDeclSet(64, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")
	lp := rt.ParLoop("touch", cells, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 1 })
	for i := 0; i < 3; i++ {
		if err := lp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	stats := rt.ProfileStats()
	if len(stats) != 1 || stats[0].Name != "touch" || stats[0].Count != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	var buf bytes.Buffer
	if err := rt.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "touch") {
		t.Fatalf("profile table missing loop name:\n%s", buf.String())
	}

	bare := op2.MustNew()
	defer bare.Close()
	if err := bare.WriteProfile(&buf); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("WriteProfile without profiling: %v", err)
	}
	if bare.ProfileStats() != nil {
		t.Fatal("ProfileStats without profiling should be nil")
	}
}

func TestFutureReadyAndWaitAll(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	cells := op2.MustDeclSet(128, "cells")
	a := op2.MustDeclDat(cells, 1, nil, "a")
	b := op2.MustDeclDat(cells, 1, nil, "b")
	ctx := context.Background()

	fa := rt.ParLoop("wa", cells, op2.DirectArg(a, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 1 }).Async(ctx)
	fb := rt.ParLoop("wb", cells, op2.DirectArg(b, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 2 }).Async(ctx)
	if err := op2.WaitAll(fa, fb, nil); err != nil {
		t.Fatal(err)
	}
	if !fa.Ready() || !fb.Ready() {
		t.Fatal("futures not ready after WaitAll")
	}
	select {
	case <-fa.Done():
	default:
		t.Fatal("Done channel not closed after completion")
	}
}

// rangeOnly binds a RangeBody that captures its arrays itself; the
// shared-memory tests using it index the declarations' host arrays.
func rangeOnly(f op2.RangeBody) op2.Binder { return func(op2.Bind) op2.RangeBody { return f } }
