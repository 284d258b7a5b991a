package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"op2hpx/internal/hpx"
	"op2hpx/internal/hpx/sched"
)

func testExecutor(t *testing.T, b Backend, workers int) *Executor {
	t.Helper()
	pool := sched.NewPool(workers)
	t.Cleanup(pool.Close)
	return NewExecutor(Config{Backend: b, Pool: pool})
}

// saxpyLoop builds the direct loop y += a*x over a fresh pair of dats.
func saxpyLoop(n int) (*Loop, *Dat, *Dat) {
	cells := MustDeclSet(n, "cells")
	x := MustDeclDat(cells, 1, nil, "x")
	y := MustDeclDat(cells, 1, nil, "y")
	for i := 0; i < n; i++ {
		x.Data()[i] = float64(i)
		y.Data()[i] = 1
	}
	l := &Loop{
		Name: "saxpy",
		Set:  cells,
		Args: []Arg{
			ArgDat(x, IDIdx, nil, Read),
			ArgDat(y, IDIdx, nil, RW),
		},
		Kernel: func(v [][]float64) {
			v[1][0] += 2 * v[0][0]
		},
	}
	return l, x, y
}

func TestSerialDirectLoop(t *testing.T) {
	const n = 1000
	l, _, y := saxpyLoop(n)
	ex := testExecutor(t, Serial, 1)
	if err := ex.Run(l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 1 + 2*float64(i)
		if y.Data()[i] != want {
			t.Fatalf("y[%d] = %g, want %g", i, y.Data()[i], want)
		}
	}
}

func TestForkJoinMatchesSerialDirect(t *testing.T) {
	const n = 10000
	l1, _, y1 := saxpyLoop(n)
	l2, _, y2 := saxpyLoop(n)
	if err := testExecutor(t, Serial, 1).Run(l1); err != nil {
		t.Fatal(err)
	}
	if err := testExecutor(t, ForkJoin, 4).Run(l2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatalf("mismatch at %d: serial %g, forkjoin %g", i, y1.Data()[i], y2.Data()[i])
		}
	}
}

func TestDataflowMatchesSerialDirect(t *testing.T) {
	const n = 10000
	l1, _, y1 := saxpyLoop(n)
	l2, _, y2 := saxpyLoop(n)
	if err := testExecutor(t, Serial, 1).Run(l1); err != nil {
		t.Fatal(err)
	}
	ex := testExecutor(t, Dataflow, 4)
	f := ex.RunAsync(l2)
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

// jacobiSetup builds the classic OP2 indirect increment loop: for every
// edge, add a flux to both endpoint nodes (OP_INC through a map).
func jacobiSetup(rng *rand.Rand, nedges, nnodes int) (*Loop, *Dat) {
	edges := MustDeclSet(nedges, "edges")
	nodes := MustDeclSet(nnodes, "nodes")
	vals := make([]int32, nedges*2)
	for i := range vals {
		vals[i] = int32(rng.Intn(nnodes))
	}
	pedge := MustDeclMap(edges, nodes, 2, vals, "pedge")
	w := MustDeclDat(edges, 1, nil, "w")
	for e := 0; e < nedges; e++ {
		w.Data()[e] = rng.Float64()
	}
	u := MustDeclDat(nodes, 1, nil, "u")
	l := &Loop{
		Name: "res",
		Set:  edges,
		Args: []Arg{
			ArgDat(w, IDIdx, nil, Read),
			ArgDat(u, 0, pedge, Inc),
			ArgDat(u, 1, pedge, Inc),
		},
		Kernel: func(v [][]float64) {
			v[1][0] += v[0][0]
			v[2][0] -= v[0][0]
		},
	}
	return l, u
}

func TestIndirectIncMatchesSerial(t *testing.T) {
	const nedges, nnodes = 20000, 3000
	l1, u1 := jacobiSetup(rand.New(rand.NewSource(42)), nedges, nnodes)
	l2, u2 := jacobiSetup(rand.New(rand.NewSource(42)), nedges, nnodes)
	if err := testExecutor(t, Serial, 1).Run(l1); err != nil {
		t.Fatal(err)
	}
	if err := testExecutor(t, ForkJoin, 8).Run(l2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nnodes; i++ {
		if diff := math.Abs(u1.Data()[i] - u2.Data()[i]); diff > 1e-9 {
			t.Fatalf("node %d: serial %g vs parallel %g", i, u1.Data()[i], u2.Data()[i])
		}
	}
}

func TestIndirectIncDeterministicAcrossThreadCounts(t *testing.T) {
	// Colored execution orders conflicting updates by color, so the
	// result must be bit-identical for any worker count.
	const nedges, nnodes = 10000, 1500
	var ref []float64
	for _, workers := range []int{1, 2, 4, 8} {
		l, u := jacobiSetup(rand.New(rand.NewSource(9)), nedges, nnodes)
		ex := testExecutor(t, ForkJoin, workers)
		if err := ex.Run(l); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = append([]float64(nil), u.Data()...)
			continue
		}
		for i := range ref {
			if u.Data()[i] != ref[i] {
				t.Fatalf("workers=%d: node %d differs bit-wise: %g vs %g",
					workers, i, u.Data()[i], ref[i])
			}
		}
	}
}

func TestGlobalReductionInc(t *testing.T) {
	const n = 5000
	cells := MustDeclSet(n, "cells")
	x := MustDeclDat(cells, 1, nil, "x")
	for i := 0; i < n; i++ {
		x.Data()[i] = 1
	}
	for _, b := range []Backend{Serial, ForkJoin, Dataflow} {
		g := MustDeclGlobal(1, []float64{10}, "sum")
		l := &Loop{
			Name: "sum",
			Set:  cells,
			Args: []Arg{ArgDat(x, IDIdx, nil, Read), ArgGbl(g, Inc)},
			Kernel: func(v [][]float64) {
				v[1][0] += v[0][0]
			},
		}
		ex := testExecutor(t, b, 4)
		if err := ex.Run(l); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if err := g.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := g.Data()[0]; got != 10+n {
			t.Fatalf("%v: reduction = %g, want %d", b, got, 10+n)
		}
	}
}

func TestGlobalReductionMinMax(t *testing.T) {
	const n = 1000
	cells := MustDeclSet(n, "cells")
	x := MustDeclDat(cells, 1, nil, "x")
	for i := 0; i < n; i++ {
		x.Data()[i] = float64((i*7919)%n) - 100
	}
	gmin := MustDeclGlobal(1, []float64{math.Inf(1)}, "min")
	gmax := MustDeclGlobal(1, []float64{math.Inf(-1)}, "max")
	l := &Loop{
		Name: "minmax",
		Set:  cells,
		Args: []Arg{ArgDat(x, IDIdx, nil, Read), ArgGbl(gmin, Min), ArgGbl(gmax, Max)},
		Kernel: func(v [][]float64) {
			if v[0][0] < v[1][0] {
				v[1][0] = v[0][0]
			}
			if v[0][0] > v[2][0] {
				v[2][0] = v[0][0]
			}
		},
	}
	if err := testExecutor(t, ForkJoin, 4).Run(l); err != nil {
		t.Fatal(err)
	}
	if gmin.Data()[0] != -100 {
		t.Fatalf("min = %g, want -100", gmin.Data()[0])
	}
	if gmax.Data()[0] != float64(n-1)-100 {
		t.Fatalf("max = %g, want %g", gmax.Data()[0], float64(n-1)-100)
	}
}

func TestDataflowDependentLoopsOrdered(t *testing.T) {
	// save_soln → update chaining (Fig. 10): the second loop reads what
	// the first wrote, so interleaving must still produce the serial
	// result.
	const n = 20000
	cells := MustDeclSet(n, "cells")
	q := MustDeclDat(cells, 1, nil, "q")
	qold := MustDeclDat(cells, 1, nil, "qold")
	for i := 0; i < n; i++ {
		q.Data()[i] = float64(i)
	}
	ex := testExecutor(t, Dataflow, 4)
	save := &Loop{
		Name: "save_soln", Set: cells,
		Args: []Arg{ArgDat(q, IDIdx, nil, Read), ArgDat(qold, IDIdx, nil, Write)},
		Kernel: func(v [][]float64) {
			v[1][0] = v[0][0]
		},
	}
	update := &Loop{
		Name: "update", Set: cells,
		Args: []Arg{ArgDat(qold, IDIdx, nil, Read), ArgDat(q, IDIdx, nil, Write)},
		Kernel: func(v [][]float64) {
			v[1][0] = v[0][0] * 2
		},
	}
	// Issue both without waiting — the dataflow DAG must order them.
	ex.RunAsync(save)
	ex.RunAsync(update)
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if q.Data()[i] != 2*float64(i) {
			t.Fatalf("q[%d] = %g, want %g", i, q.Data()[i], 2*float64(i))
		}
	}
}

func TestDataflowIndependentLoopsInterleave(t *testing.T) {
	// Two loops over disjoint dats share no dependencies: the second
	// must be able to start (and finish) while the first is still
	// blocked — the "loops not dependent on each other can be executed
	// without waiting" property of §IV-A.
	cells := MustDeclSet(64, "cells")
	a := MustDeclDat(cells, 1, nil, "a")
	b := MustDeclDat(cells, 1, nil, "b")
	gate := make(chan struct{})
	var bDone atomic.Bool
	ex := testExecutor(t, Dataflow, 4)
	slow := &Loop{
		Name: "slow", Set: cells,
		Args: []Arg{ArgDat(a, IDIdx, nil, RW)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			if lo == 0 {
				<-gate
			}
		}),
	}
	fast := &Loop{
		Name: "fast", Set: cells,
		Args: []Arg{ArgDat(b, IDIdx, nil, RW)},
		Body: rangeOnly(func(lo, hi int, _ []float64) { bDone.Store(true) }),
	}
	fSlow := ex.RunAsync(slow)
	fFast := ex.RunAsync(fast)
	if err := fFast.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bDone.Load() {
		t.Fatal("independent loop did not run")
	}
	if fSlow.Ready() {
		t.Fatal("slow loop finished before its gate opened")
	}
	close(gate)
	if err := fSlow.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDataflowWriteAfterReadOrdered(t *testing.T) {
	// WAR hazard: a loop writing a dat must wait for earlier readers.
	cells := MustDeclSet(1, "cells")
	d := MustDeclDat(cells, 1, []float64{5}, "d")
	sink := MustDeclDat(cells, 1, nil, "sink")
	gate := make(chan struct{})
	ex := testExecutor(t, Dataflow, 2)
	var observed atomic.Value
	reader := &Loop{
		Name: "reader", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, Read), ArgDat(sink, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			<-gate
			observed.Store(d.Data()[0])
		}),
	}
	writer := &Loop{
		Name: "writer", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) { d.Data()[0] = 99 }),
	}
	ex.RunAsync(reader)
	fw := ex.RunAsync(writer)
	time.Sleep(2 * time.Millisecond)
	if fw.Ready() {
		t.Fatal("writer ran before outstanding reader finished (WAR violation)")
	}
	close(gate)
	if err := fw.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := observed.Load().(float64); got != 5 {
		t.Fatalf("reader observed %g, want 5 (pre-write value)", got)
	}
	if d.Data()[0] != 99 {
		t.Fatalf("writer result lost: %g", d.Data()[0])
	}
}

func TestDataflowReadersRunConcurrently(t *testing.T) {
	// Two readers of the same dat have no mutual dependency.
	cells := MustDeclSet(8, "cells")
	d := MustDeclDat(cells, 1, nil, "d")
	o1 := MustDeclDat(cells, 1, nil, "o1")
	o2 := MustDeclDat(cells, 1, nil, "o2")
	ex := testExecutor(t, Dataflow, 4)
	barrier := make(chan struct{}, 2)
	both := make(chan struct{})
	mk := func(out *Dat) *Loop {
		return &Loop{
			Name: "r", Set: cells,
			Args: []Arg{ArgDat(d, IDIdx, nil, Read), ArgDat(out, IDIdx, nil, Write)},
			Body: rangeOnly(func(lo, hi int, _ []float64) {
				if lo == 0 {
					barrier <- struct{}{}
					<-both // both readers must be inside simultaneously
				}
			}),
		}
	}
	f1 := ex.RunAsync(mk(o1))
	f2 := ex.RunAsync(mk(o2))
	for i := 0; i < 2; i++ {
		select {
		case <-barrier:
		case <-time.After(5 * time.Second):
			t.Fatal("readers serialized: only one entered its body")
		}
	}
	close(both)
	if err := hpx.WaitAll(f1, f2); err != nil {
		t.Fatal(err)
	}
}

func TestDataflowErrorPropagatesToDependents(t *testing.T) {
	cells := MustDeclSet(4, "cells")
	d := MustDeclDat(cells, 1, nil, "d")
	ex := testExecutor(t, Dataflow, 2)
	bad := &Loop{
		Name: "bad", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) { panic("kernel bug") }),
	}
	good := &Loop{
		Name: "good", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, Read)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {}),
	}
	ex.RunAsync(bad)
	f := ex.RunAsync(good)
	if err := f.Wait(); err == nil {
		t.Fatal("dependent loop succeeded despite failed producer")
	}
	if err := d.Sync(); err == nil {
		t.Fatal("Sync reported success despite failed loop")
	}
}

func TestPrefetchingExecutorCorrectness(t *testing.T) {
	const n = 50000
	l1, _, y1 := saxpyLoop(n)
	l2, _, y2 := saxpyLoop(n)
	if err := testExecutor(t, Serial, 1).Run(l1); err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(4)
	t.Cleanup(pool.Close)
	ex := NewExecutor(Config{Backend: ForkJoin, Pool: pool, PrefetchDistance: 15})
	if err := ex.Run(l2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatalf("prefetching changed results at %d", i)
		}
	}
}

func TestPrefetchingIndirectCorrectness(t *testing.T) {
	const nedges, nnodes = 20000, 3000
	l1, u1 := jacobiSetup(rand.New(rand.NewSource(13)), nedges, nnodes)
	l2, u2 := jacobiSetup(rand.New(rand.NewSource(13)), nedges, nnodes)
	if err := testExecutor(t, ForkJoin, 4).Run(l1); err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(4)
	t.Cleanup(pool.Close)
	ex := NewExecutor(Config{Backend: ForkJoin, Pool: pool, PrefetchDistance: 8})
	if err := ex.Run(l2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nnodes; i++ {
		if u1.Data()[i] != u2.Data()[i] {
			t.Fatalf("prefetching changed indirect results at node %d", i)
		}
	}
}

func TestExecutorChunkerConfigurations(t *testing.T) {
	const n = 30000
	ref, _, yref := saxpyLoop(n)
	if err := testExecutor(t, Serial, 1).Run(ref); err != nil {
		t.Fatal(err)
	}
	chunkers := []hpx.Chunker{
		hpx.StaticChunker(100),
		hpx.EvenChunker(1),
		hpx.AutoChunker(),
		hpx.NewPersistentAutoChunker(),
	}
	for _, c := range chunkers {
		l, _, y := saxpyLoop(n)
		pool := sched.NewPool(4)
		ex := NewExecutor(Config{Backend: ForkJoin, Pool: pool, Chunker: c})
		if err := ex.Run(l); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		pool.Close()
		for i := 0; i < n; i++ {
			if y.Data()[i] != yref.Data()[i] {
				t.Fatalf("%s: wrong result at %d", c.Name(), i)
			}
		}
		// ForkJoin hands the chunker the same timing probe as Dataflow,
		// so a calibrating chunker calibrates.
		if p, ok := c.(*hpx.PersistentAutoChunker); ok && p.Target() == 0 {
			t.Fatalf("%s: no target calibrated under ForkJoin", c.Name())
		}
	}
}

// waitExecuted waits until the pool has counted want executed tasks —
// the counter ticks just after each task returns — and fails if it
// never gets there or overshoots.
func waitExecuted(t *testing.T, pool *sched.Pool, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		executed, _ := pool.Stats()
		if executed == want {
			return
		}
		if executed > want || time.Now().After(deadline) {
			t.Fatalf("pool executed %d tasks, want %d", executed, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForkJoinRunsChunksOnPool checks that ForkJoin loops run their
// chunks of whole plan blocks as tasks of the executor's pool: a direct
// loop (one color) and a colored loop each raise the pool's executed
// count by their chunk count over the blocks of every color.
func TestForkJoinRunsChunksOnPool(t *testing.T) {
	const workers = 4
	pool := sched.NewPool(workers)
	t.Cleanup(pool.Close)
	ex := NewExecutor(Config{Backend: ForkJoin, Pool: pool, BlockSize: 100})
	even := hpx.EvenChunker(1)

	direct, _, _ := saxpyLoop(10000)
	colored, _ := ringLoop(2000)
	var want uint64
	for _, l := range []*Loop{direct, colored} {
		if err := ex.Run(l); err != nil {
			t.Fatal(err)
		}
		cl, err := ex.compiled(l)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cl.plan.NColors(); c++ {
			nb := len(cl.plan.BlocksOfColor(c))
			size := even.ChunkSize(nb, workers, nil)
			if size >= nb {
				t.Fatalf("%s: color %d has %d blocks: one chunk, which runs on the caller", l.Name, c, nb)
			}
			want += uint64((nb + size - 1) / size)
		}
		waitExecuted(t, pool, want)
	}
}

// TestForkJoinChunkPanic checks that a kernel panic inside a ForkJoin
// chunk on the pool fails Run with an error naming the loop, and that
// the next execution on the same executor runs and matches Serial
// bitwise.
func TestForkJoinChunkPanic(t *testing.T) {
	cases := []struct {
		name string
		make func() (*Loop, *Dat)
	}{
		{"direct", func() (*Loop, *Dat) { l, _, y := saxpyLoop(10000); return l, y }},
		{"colored", func() (*Loop, *Dat) { return ringLoop(2000) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := sched.NewPool(2)
			t.Cleanup(pool.Close)
			ex := NewExecutor(Config{Backend: ForkJoin, Pool: pool, BlockSize: 100})
			serial := NewExecutor(Config{Backend: Serial, BlockSize: 100})

			l, d := tc.make()
			init := append([]float64(nil), d.Data()...)
			kernel := l.Kernel
			var boom atomic.Bool
			boom.Store(true)
			l.Kernel = func(v [][]float64) {
				if boom.Load() {
					panic("kernel failure")
				}
				kernel(v)
			}
			err := ex.Run(l)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", l.Name)) ||
				!strings.Contains(err.Error(), "parallel region panicked: kernel failure") {
				t.Fatalf("Run = %v, want the panic reported against loop %q", err, l.Name)
			}

			boom.Store(false)
			copy(d.Data(), init)
			if err := ex.Run(l); err != nil {
				t.Fatalf("run after the panic: %v", err)
			}
			ref, dref := tc.make()
			if err := serial.Run(ref); err != nil {
				t.Fatal(err)
			}
			for i, v := range d.Data() {
				if v != dref.Data()[i] {
					t.Fatalf("element %d: forkjoin %g, serial %g", i, v, dref.Data()[i])
				}
			}
		})
	}
}

func TestDatSyncAndFuture(t *testing.T) {
	cells := MustDeclSet(100, "cells")
	d := MustDeclDat(cells, 1, nil, "d")
	ex := testExecutor(t, Dataflow, 2)
	l := &Loop{
		Name: "w", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			for i := lo; i < hi; i++ {
				d.Data()[i] = 3
			}
		}),
	}
	ex.RunAsync(l)
	fut := d.Future()
	got, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatal("Future resolved to a different dat")
	}
	if d.Data()[50] != 3 {
		t.Fatal("Future resolved before the writing loop completed")
	}
}

func TestBackendStrings(t *testing.T) {
	if Serial.String() != "serial" || ForkJoin.String() != "forkjoin" || Dataflow.String() != "dataflow" {
		t.Fatal("backend names changed")
	}
}

// rangeOnly binds a RangeBody that captures its arrays itself.
func rangeOnly(f RangeBody) Binder { return func(Bind) RangeBody { return f } }
