package op2_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"op2hpx/op2"
)

// TestDistributedFacadeQuickstart drives the README quickstart shape
// through a distributed runtime: an edge-sum reduction over a partitioned
// node set, compared bitwise against the serial backend.
func TestDistributedFacadeQuickstart(t *testing.T) {
	build := func() (*op2.Set, *op2.Set, *op2.Map, *op2.Dat, *op2.Dat, *op2.Global) {
		nodes := op2.MustDeclSet(9, "nodes")
		edges := op2.MustDeclSet(8, "edges")
		table := make([]int32, 16)
		for e := 0; e < 8; e++ {
			table[2*e] = int32(e)
			table[2*e+1] = int32(e + 1)
		}
		pedge := op2.MustDeclMap(edges, nodes, 2, table, "pedge")
		vals := make([]float64, 9)
		for i := range vals {
			vals[i] = float64(i)*1.25 + 0.5
		}
		val := op2.MustDeclDat(nodes, 1, vals, "val")
		acc := op2.MustDeclDat(nodes, 1, nil, "acc")
		total := op2.MustDeclGlobal(1, nil, "total")
		return nodes, edges, pedge, val, acc, total
	}
	run := func(rt *op2.Runtime) float64 {
		t.Helper()
		defer rt.Close()
		_, edges, pedge, val, acc, total := build()
		loop := rt.ParLoop("edge_sum", edges,
			op2.DatArg(val, 0, pedge, op2.Read),
			op2.DatArg(val, 1, pedge, op2.Read),
			op2.DatArg(acc, 0, pedge, op2.Inc), // also exercise increments
			op2.GblArg(total, op2.Inc),
		).Kernel(func(v [][]float64) {
			v[3][0] += v[0][0] + v[1][0]
			v[2][0] += 0.125 * v[1][0]
		})
		if err := loop.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := acc.Sync(); err != nil {
			t.Fatal(err)
		}
		return total.Data()[0] + acc.Data()[3]
	}
	ref := run(op2.MustNew(op2.WithBackend(op2.Serial)))
	for _, ranks := range []int{1, 2, 3, 5} {
		got := run(op2.MustNew(op2.WithRanks(ranks)))
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("ranks=%d: total %.17g != serial %.17g", ranks, got, ref)
		}
	}
}

// TestDistributedOptionValidation pins the option and Partition API
// errors onto ErrValidation.
func TestDistributedOptionValidation(t *testing.T) {
	if _, err := op2.New(op2.WithRanks(-1)); !errors.Is(err, op2.ErrValidation) {
		t.Errorf("WithRanks(-1): %v", err)
	}
	if _, err := op2.New(op2.WithPartitioner(op2.RCBPartitioner())); !errors.Is(err, op2.ErrValidation) {
		t.Errorf("WithPartitioner without WithRanks: %v", err)
	}

	shared := op2.MustNew()
	defer shared.Close()
	if shared.Ranks() != 0 || shared.Distributed() {
		t.Error("shared runtime reports distributed state")
	}
	set := op2.MustDeclSet(4, "s")
	if err := shared.Partition(set, nil, nil, nil); !errors.Is(err, op2.ErrValidation) {
		t.Errorf("Partition on shared runtime: %v", err)
	}
	if shared.PartitionReport() != nil {
		t.Error("shared runtime has a partition report")
	}

	rt := op2.MustNew(op2.WithRanks(2), op2.WithPartitioner(op2.RCBPartitioner()))
	defer rt.Close()
	if rt.Ranks() != 2 || !rt.Distributed() {
		t.Error("distributed runtime misreports ranks")
	}
	// RCB without registered geometry must classify as validation when
	// the first loop needs a partition.
	d := op2.MustDeclDat(set, 1, nil, "d")
	err := rt.ParLoop("w", set, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 1 }).
		Run(context.Background())
	if !errors.Is(err, op2.ErrValidation) {
		t.Errorf("RCB without topology: %v", err)
	}
}

// TestDistributedAsyncGlobalFence asserts that Global.Sync/Future and
// Dat.Future fence the distributed engine: after asynchronous issue, a
// host read behind the fence observes the fully-applied reduction and
// flushed shards (this would race and read stale values without the
// SetFlush fences).
func TestDistributedAsyncGlobalFence(t *testing.T) {
	rt := op2.MustNew(op2.WithRanks(3))
	defer rt.Close()
	cells := op2.MustDeclSet(300, "cells")
	d := op2.MustDeclDat(cells, 1, nil, "d")
	total := op2.MustDeclGlobal(1, nil, "total")
	bump := rt.ParLoop("bump", cells,
		op2.DirectArg(d, op2.RW),
		op2.GblArg(total, op2.Inc),
	).Kernel(func(v [][]float64) {
		v[0][0]++
		v[1][0]++
	})
	const reps = 20
	ctx := context.Background()
	for i := 0; i < reps; i++ {
		bump.Async(ctx)
	}
	if err := total.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := total.Data()[0], float64(reps*300); got != want {
		t.Errorf("total after Sync = %g, want %g", got, want)
	}
	df, err := d.Future().Get()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range df.Data() {
		if v != reps {
			t.Fatalf("d[%d] = %g behind Dat.Future, want %d", i, v, reps)
		}
	}
	vals, err := total.Future().Get()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != float64(reps*300) {
		t.Errorf("total behind Global.Future = %g", vals[0])
	}
}

// TestDistributedCancelClassification asserts context cancellation on the
// distributed engine surfaces as ErrCanceled through the facade — via
// Run and via an Async future — and that an error delivered through
// Future.Wait is not re-reported at the next Sync fence.
func TestDistributedCancelClassification(t *testing.T) {
	rt := op2.MustNew(op2.WithRanks(2))
	defer rt.Close()
	set := op2.MustDeclSet(64, "cells")
	d := op2.MustDeclDat(set, 1, nil, "d")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := rt.ParLoop("touch", set, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 1 }).
		Run(ctx)
	if !errors.Is(err, op2.ErrCanceled) {
		t.Errorf("pre-canceled distributed run: %v", err)
	}
	fut := rt.ParLoop("touch-async", set, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 1 }).
		Async(ctx)
	if err := fut.Wait(); !errors.Is(err, op2.ErrCanceled) {
		t.Errorf("pre-canceled distributed Async: %v", err)
	}
	// The error was delivered through Wait: the next host fence must not
	// report it again.
	if err := d.Sync(); err != nil {
		t.Errorf("Sync re-reported a Wait-delivered error: %v", err)
	}
	// The runtime must stay usable.
	if err := rt.ParLoop("touch2", set, op2.DirectArg(d, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 2 }).
		Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Data() {
		if v != 2 {
			t.Fatalf("d[%d] = %g after recovery run", i, v)
		}
	}
}

// TestColoredIncGlobalBitwise pins the reduction grid of a colored loop
// with Inc globals: every backend, chunker, pool size and rank count
// folds each plan block from init in element order and the blocks in
// ascending id, so the globals match Serial bit for bit. The loop runs
// three times, so calibrated chunk sizes are exercised too.
func TestColoredIncGlobalBitwise(t *testing.T) {
	const nnode, nedge = 3001, 6000
	run := func(rt *op2.Runtime) []uint64 {
		t.Helper()
		defer rt.Close()
		nodes := op2.MustDeclSet(nnode, "nodes")
		edges := op2.MustDeclSet(nedge, "edges")
		table := make([]int32, 2*nedge)
		for e := 0; e < nedge; e++ {
			table[2*e] = int32(7 * e % nnode)
			table[2*e+1] = int32((13*e + 1) % nnode)
		}
		pedge := op2.MustDeclMap(edges, nodes, 2, table, "pedge")
		vals := make([]float64, nnode)
		for n := range vals {
			vals[n] = float64(n*7919%2003) - 1001.3
		}
		val := op2.MustDeclDat(nodes, 1, vals, "val")
		res := op2.MustDeclDat(nodes, 1, nil, "res")
		total := op2.MustDeclGlobal(1, nil, "total")
		acc := op2.MustDeclGlobal(1, nil, "acc")
		loop := rt.ParLoop("colored_inc", edges,
			op2.DatArg(val, 0, pedge, op2.Read),
			op2.DatArg(val, 1, pedge, op2.Read),
			op2.DatArg(res, 0, pedge, op2.Inc),
			op2.DatArg(res, 1, pedge, op2.Inc),
			op2.GblArg(total, op2.Inc),
			op2.GblArg(acc, op2.Inc),
		).Kernel(func(v [][]float64) {
			v[2][0] += v[1][0]
			v[3][0] -= v[0][0]
			v[4][0] += v[0][0] * v[1][0] / 7
			v[5][0] += v[1][0] / 8
		})
		for i := 0; i < 3; i++ {
			if err := loop.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if err := res.Sync(); err != nil {
			t.Fatal(err)
		}
		bits := []uint64{math.Float64bits(total.Data()[0]), math.Float64bits(acc.Data()[0])}
		for _, x := range res.Data() {
			bits = append(bits, math.Float64bits(x))
		}
		return bits
	}
	check := func(name string, got, want []uint64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: value %d = %.17g, serial %.17g (not bitwise)", name, i,
					math.Float64frombits(got[i]), math.Float64frombits(want[i]))
				return
			}
		}
	}
	ref := run(op2.MustNew(op2.WithBackend(op2.Serial)))
	for _, ranks := range []int{1, 2, 3, 7} {
		check(fmt.Sprintf("ranks=%d", ranks), run(op2.MustNew(op2.WithRanks(ranks))), ref)
	}
	chunkers := map[string]func() op2.Chunker{
		"static3":    func() op2.Chunker { return op2.StaticChunk(3) },
		"auto":       op2.AutoChunk,
		"persistent": func() op2.Chunker { return op2.PersistentAutoChunk() },
	}
	for _, b := range []op2.Backend{op2.ForkJoin, op2.Dataflow} {
		for workers := 1; workers <= 7; workers++ {
			for name, ck := range chunkers {
				rt := op2.MustNew(op2.WithBackend(b), op2.WithPoolSize(workers), op2.WithChunker(ck()))
				check(fmt.Sprintf("%v-%d-%s", b, workers, name), run(rt), ref)
			}
		}
	}
}
