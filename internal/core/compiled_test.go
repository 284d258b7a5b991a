package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"op2hpx/internal/hpx"
	"op2hpx/internal/hpx/sched"
)

// TestReductionSlotsOwnCacheLines records the scratch slot every chunk
// of a reducing loop is handed and checks the table's layout: each slot
// starts on a 64-byte line and no two slots share a line, for 1-, 3- and
// 9-wide reductions over many chunks on the fork-join, direct, colored
// and fused execution paths.
func TestReductionSlotsOwnCacheLines(t *testing.T) {
	const n = 2000
	for _, width := range []int{1, 3, 9} {
		for _, tc := range []struct {
			name    string
			backend Backend
			colored bool
			fused   bool
		}{
			{"forkjoin/direct", ForkJoin, false, false},
			{"dataflow/direct", Dataflow, false, false},
			{"dataflow/colored", Dataflow, true, false},
			{"dataflow/fused", Dataflow, false, true},
		} {
			name := fmt.Sprintf("width %d %s", width, tc.name)
			cells := MustDeclSet(n, "cells")
			nodes := MustDeclSet(n/4, "nodes")
			conn := make([]int32, n)
			for i := range conn {
				conn[i] = int32(i / 4)
			}
			m := MustDeclMap(cells, nodes, 1, conn, "conn")
			u := MustDeclDat(nodes, 1, nil, "u")
			var (
				mu    sync.Mutex
				slots = map[uintptr]bool{}
			)
			nloops := 1
			if tc.fused {
				nloops = 2
			}
			var globals []*Global
			var loops []*Loop
			for range nloops {
				g := MustDeclGlobal(width, nil, "sum")
				args := []Arg{ArgGbl(g, Inc)}
				if tc.colored {
					args = append(args, ArgDat(u, 0, m, Inc))
				}
				globals = append(globals, g)
				loops = append(loops, &Loop{Name: "sum", Set: cells, Args: args,
					Body: rangeOnly(func(lo, hi int, s []float64) {
						mu.Lock()
						slots[uintptr(unsafe.Pointer(&s[0]))] = true
						mu.Unlock()
						for i := lo; i < hi; i++ {
							for k := range s {
								s[k]++
							}
						}
					}),
				})
			}
			pool := sched.NewPool(4)
			ex := NewExecutor(Config{Backend: tc.backend, Pool: pool,
				Chunker: hpx.StaticChunker(8), BlockSize: 16})
			var err error
			if tc.fused {
				var sp *StepPlan
				if sp, err = BuildStepPlan("sums", loops); err == nil {
					if sp.FusedGroups() != 1 {
						t.Fatalf("%s: the two reductions did not fuse", name)
					}
					err = ex.RunStepCtx(context.Background(), sp)
				}
			} else {
				err = ex.Run(loops[0])
			}
			pool.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, g := range globals {
				if err := g.Sync(); err != nil {
					t.Fatal(err)
				}
				for k, v := range g.Data() {
					if v != n {
						t.Fatalf("%s: sum[%d] = %g, want %d", name, k, v, n)
					}
				}
			}
			addrs := make([]uintptr, 0, len(slots))
			for a := range slots {
				addrs = append(addrs, a)
			}
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			if len(addrs) < 50 {
				t.Fatalf("%s: only %d slots written; want many chunks", name, len(addrs))
			}
			for i, a := range addrs {
				if a%64 != 0 {
					t.Fatalf("%s: slot at %#x is not 64-byte aligned", name, a)
				}
				if i > 0 && a/64 <= (addrs[i-1]+uintptr(width*8)-1)/64 {
					t.Fatalf("%s: slots at %#x and %#x share a cache line", name, addrs[i-1], a)
				}
			}
		}
	}
}

// countingChunker counts how often a loop consults it.
type countingChunker struct {
	hpx.Chunker
	calls atomic.Int64
}

func (c *countingChunker) ChunkSize(n, workers int, measure func(int) time.Duration) int {
	c.calls.Add(1)
	return c.Chunker.ChunkSize(n, workers, measure)
}

// ringLoop builds an indirect increment loop over the edges of a ring:
// edge e adds its weight to node e and subtracts it from node e+1, so
// consecutive blocks conflict and the plan needs two or three colors.
func ringLoop(n int) (*Loop, *Dat) {
	edges := MustDeclSet(n, "edges")
	nodes := MustDeclSet(n, "nodes")
	ends := make([]int32, 2*n)
	for e := 0; e < n; e++ {
		ends[2*e], ends[2*e+1] = int32(e), int32((e+1)%n)
	}
	ring := MustDeclMap(edges, nodes, 2, ends, "ring")
	w := MustDeclDat(edges, 1, nil, "w")
	for e := range w.Data() {
		w.Data()[e] = 1 / float64(e+1)
	}
	u := MustDeclDat(nodes, 1, nil, "u")
	return &Loop{
		Name: "ring",
		Set:  edges,
		Args: []Arg{
			ArgDat(w, IDIdx, nil, Read),
			ArgDat(u, 0, ring, Inc),
			ArgDat(u, 1, ring, Inc),
		},
		Kernel: func(v [][]float64) {
			v[1][0] += v[0][0]
			v[2][0] -= v[0][0]
		},
	}, u
}

// TestColoredLoopCalibratesOnce checks that a colored loop consults its
// chunker once per color on its first execution and never again at the
// same pool size, that colors smaller than the auto probe — run whole
// by the probe on the first execution — go to the pool from the second
// execution on, and that results stay bitwise equal to Serial.
func TestColoredLoopCalibratesOnce(t *testing.T) {
	const n, blockSize, runs = 2000, 100, 3
	l, u := ringLoop(n)
	ref, uref := ringLoop(n)
	pool := sched.NewPool(2)
	t.Cleanup(pool.Close)
	ck := &countingChunker{Chunker: hpx.AutoChunker()}
	ex := NewExecutor(Config{Backend: Dataflow, Pool: pool, Chunker: ck, BlockSize: blockSize})
	serial := NewExecutor(Config{Backend: Serial, BlockSize: blockSize})
	for r := 0; r < runs; r++ {
		if err := ex.Run(l); err != nil {
			t.Fatal(err)
		}
		if err := serial.Run(ref); err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			if executed, _ := pool.Stats(); executed != 0 {
				t.Fatalf("first execution ran %d pool tasks; the probe should cover every color", executed)
			}
		}
	}
	cl, err := ex.compiled(l)
	if err != nil {
		t.Fatal(err)
	}
	colors := cl.plan.NColors()
	for c := 0; c < colors; c++ {
		if nb := len(cl.plan.BlocksOfColor(c)); nb < 2 || nb >= 16 {
			t.Fatalf("color %d has %d blocks; the test needs 2..15 (smaller than the probe)", c, nb)
		}
	}
	if got := ck.calls.Load(); got != int64(colors) {
		t.Fatalf("chunker consulted %d times over %d executions, want %d (once per color)", got, runs, colors)
	}
	// Pool counters tick just after each task returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if executed, _ := pool.Stats(); executed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("later executions never dispatched a color on the pool")
		}
		time.Sleep(time.Millisecond)
	}
	for i, v := range u.Data() {
		if v != uref.Data()[i] {
			t.Fatalf("node %d: dataflow %g, serial %g", i, v, uref.Data()[i])
		}
	}
}

// TestColoredLoopRecalibratesOnPoolResize runs a colored loop on the
// process-wide pool and resizes it between executions: the new size
// makes the loop consult its chunker again.
func TestColoredLoopRecalibratesOnPoolResize(t *testing.T) {
	prev := sched.Default().Size()
	t.Cleanup(func() { sched.ResetDefault(prev) })
	sched.ResetDefault(2)
	l, _ := ringLoop(2000)
	ck := &countingChunker{Chunker: hpx.AutoChunker()}
	ex := NewExecutor(Config{Backend: Dataflow, Chunker: ck, BlockSize: 100})
	run := func() {
		t.Helper()
		if err := ex.RunCtx(context.Background(), l); err != nil {
			t.Fatal(err)
		}
	}
	run()
	cl, err := ex.compiled(l)
	if err != nil {
		t.Fatal(err)
	}
	colors := int64(cl.plan.NColors())
	run()
	if got := ck.calls.Load(); got != colors {
		t.Fatalf("after 2 executions at one pool size: %d chunker calls, want %d", got, colors)
	}
	sched.ResetDefault(3)
	run()
	run()
	if got := ck.calls.Load(); got != 2*colors {
		t.Fatalf("after resizing the pool: %d chunker calls, want %d", got, 2*colors)
	}
}

// TestDirectLoopRunsBlockGrid checks the ranges a direct loop's body is
// handed: a loop without reductions runs adjacent blocks as one range,
// and a reducing loop runs one range per plan block — its reduction
// grid — on every backend and chunker.
func TestDirectLoopRunsBlockGrid(t *testing.T) {
	const n, blockSize = 1000, 100
	for _, tc := range []struct {
		name    string
		backend Backend
		chunker hpx.Chunker
	}{
		{"serial", Serial, nil},
		{"forkjoin-static3", ForkJoin, hpx.StaticChunker(3)},
		{"dataflow-auto", Dataflow, hpx.AutoChunker()},
	} {
		for _, reduce := range []bool{false, true} {
			cells := MustDeclSet(n, "cells")
			d := MustDeclDat(cells, 1, nil, "d")
			g := MustDeclGlobal(1, nil, "g")
			args := []Arg{ArgDat(d, IDIdx, nil, Write)}
			if reduce {
				args = append(args, ArgGbl(g, Inc))
			}
			var (
				mu     sync.Mutex
				ranges [][2]int
			)
			l := &Loop{Name: "w", Set: cells, Args: args,
				Body: rangeOnly(func(lo, hi int, s []float64) {
					mu.Lock()
					ranges = append(ranges, [2]int{lo, hi})
					mu.Unlock()
					for i := lo; i < hi; i++ {
						d.data[i] = 1
						if s != nil {
							s[0]++
						}
					}
				})}
			pool := sched.NewPool(2)
			ex := NewExecutor(Config{Backend: tc.backend, Pool: pool, Chunker: tc.chunker, BlockSize: blockSize})
			for r := 0; r < 2; r++ {
				ranges = ranges[:0]
				if err := ex.Run(l); err != nil {
					t.Fatal(err)
				}
			}
			pool.Close()
			sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
			for i, r := range ranges {
				if reduce && (r[0] != i*blockSize || r[1] != r[0]+blockSize) {
					t.Fatalf("%s reducing: range %d = %v, want block %d", tc.name, i, r, i)
				}
			}
			if reduce && len(ranges) != n/blockSize {
				t.Fatalf("%s reducing: %d ranges, want one per block (%d)", tc.name, len(ranges), n/blockSize)
			}
			if !reduce && tc.backend == Serial && (len(ranges) != 1 || ranges[0] != [2]int{0, n}) {
				t.Fatalf("serial without reductions: ranges %v, want one range over the set", ranges)
			}
			if reduce && g.Data()[0] != 2*n {
				t.Fatalf("%s: g = %g, want %d", tc.name, g.Data()[0], 2*n)
			}
		}
	}
}

// TestDirectLoopAndFusedPassCalibrateOnce checks that a direct loop and
// a fused pass, like a colored loop, consult their chunker once (their
// plans have one color) on the first execution at a pool size.
func TestDirectLoopAndFusedPassCalibrateOnce(t *testing.T) {
	const n, runs = 4000, 3
	pool := sched.NewPool(2)
	t.Cleanup(pool.Close)
	ck := &countingChunker{Chunker: hpx.AutoChunker()}
	ex := NewExecutor(Config{Backend: Dataflow, Pool: pool, Chunker: ck, BlockSize: 100})
	direct, _, _ := saxpyLoop(n)
	for r := 0; r < runs; r++ {
		if err := ex.Run(direct); err != nil {
			t.Fatal(err)
		}
	}
	if got := ck.calls.Load(); got != 1 {
		t.Fatalf("direct loop: chunker consulted %d times over %d executions, want 1", got, runs)
	}
	cells := MustDeclSet(n, "cells")
	a := MustDeclDat(cells, 1, nil, "a")
	b := MustDeclDat(cells, 1, nil, "b")
	sp, err := BuildStepPlan("pair", []*Loop{
		{Name: "wa", Set: cells, Args: []Arg{ArgDat(a, IDIdx, nil, Write)}, Kernel: func(v [][]float64) { v[0][0] = 1 }},
		{Name: "wb", Set: cells, Args: []Arg{ArgDat(b, IDIdx, nil, Write)}, Kernel: func(v [][]float64) { v[0][0] = 2 }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp.FusedGroups() != 1 {
		t.Fatal("the two writes did not fuse")
	}
	for r := 0; r < runs; r++ {
		if err := ex.RunStepCtx(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
	}
	if got := ck.calls.Load(); got != 2 {
		t.Fatalf("chunker consulted %d times in all, want 2 (once for the loop, once for the pass)", got)
	}
}
