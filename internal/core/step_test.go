package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// diamondFixture declares the classic diamond DAG: writeA and writeB are
// independent, sumAB reads both and writes c, scaleC rewrites c.
type diamondFixture struct {
	cells                         *Set
	a, b, c                       *Dat
	writeA, writeB, sumAB, scaleC *Loop
}

func newDiamond(t *testing.T, n int) *diamondFixture {
	t.Helper()
	f := &diamondFixture{}
	var err error
	if f.cells, err = DeclSet(n, "cells"); err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Dat {
		d, err := DeclDat(f.cells, 1, nil, name)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	f.a, f.b, f.c = mk("a"), mk("b"), mk("c")
	f.writeA = &Loop{Name: "writeA", Set: f.cells,
		Args:   []Arg{ArgDat(f.a, IDIdx, nil, Write)},
		Kernel: func(v [][]float64) { v[0][0] = 1 }}
	f.writeB = &Loop{Name: "writeB", Set: f.cells,
		Args:   []Arg{ArgDat(f.b, IDIdx, nil, Write)},
		Kernel: func(v [][]float64) { v[0][0] = 2 }}
	f.sumAB = &Loop{Name: "sumAB", Set: f.cells,
		Args: []Arg{
			ArgDat(f.a, IDIdx, nil, Read),
			ArgDat(f.b, IDIdx, nil, Read),
			ArgDat(f.c, IDIdx, nil, Write),
		},
		Kernel: func(v [][]float64) { v[2][0] = v[0][0] + v[1][0] }}
	f.scaleC = &Loop{Name: "scaleC", Set: f.cells,
		Args:   []Arg{ArgDat(f.c, IDIdx, nil, RW)},
		Kernel: func(v [][]float64) { v[0][0] *= 10 }}
	return f
}

// TestStepPlanEdges asserts the classification-derived DAG: RAW edges
// into sumAB from both producers and a chain edge into scaleC.
func TestStepPlanEdges(t *testing.T) {
	f := newDiamond(t, 8)
	sp, err := BuildStepPlan("diamond", []*Loop{f.writeA, f.writeB, f.sumAB, f.scaleC})
	if err != nil {
		t.Fatal(err)
	}
	if d := sp.Deps(0); len(d) != 0 {
		t.Errorf("writeA deps = %v, want none", d)
	}
	if d := sp.Deps(1); len(d) != 0 {
		t.Errorf("writeB deps = %v, want none", d)
	}
	if d := sp.Deps(2); !reflect.DeepEqual(d, []int{0, 1}) {
		t.Errorf("sumAB deps = %v, want [0 1]", d)
	}
	if d := sp.Deps(3); !reflect.DeepEqual(d, []int{2}) {
		t.Errorf("scaleC deps = %v, want [2]", d)
	}
}

// TestStepPlanWARAndReuse asserts write-after-read edges and repeated
// occurrences: a second writeA must wait for sumAB (which read a), and
// the occurrence indices stay distinct.
func TestStepPlanWARAndReuse(t *testing.T) {
	f := newDiamond(t, 8)
	sp, err := BuildStepPlan("war", []*Loop{f.writeA, f.sumAB, f.writeA})
	if err != nil {
		t.Fatal(err)
	}
	// sumAB waits for writeA (RAW on a); the second writeA waits for the
	// first (WAW) and for sumAB (WAR) — the same unreduced dependency
	// set a version chain produces.
	if d := sp.Deps(1); !reflect.DeepEqual(d, []int{0}) {
		t.Errorf("sumAB deps = %v, want [0]", d)
	}
	if d := sp.Deps(2); !reflect.DeepEqual(d, []int{0, 1}) {
		t.Errorf("second writeA deps = %v, want [0 1] (WAW + WAR through a)", d)
	}
}

// TestStepPlanValidation pins build-time rejections.
func TestStepPlanValidation(t *testing.T) {
	f := newDiamond(t, 8)
	if _, err := BuildStepPlan("empty", nil); err == nil {
		t.Error("empty step accepted")
	}
	if _, err := BuildStepPlan("nil-loop", []*Loop{f.writeA, nil}); err == nil {
		t.Error("nil loop accepted")
	}
	bad := &Loop{Name: "kernelless", Set: f.cells, Args: []Arg{ArgDat(f.a, IDIdx, nil, Read)}}
	if _, err := BuildStepPlan("bad", []*Loop{bad}); err == nil {
		t.Error("kernel-less loop accepted")
	}
}

// TestStepRunMatchesLoopAtATime asserts the step execution path produces
// bitwise-identical results to issuing the same loops one at a time, on
// every backend.
func TestStepRunMatchesLoopAtATime(t *testing.T) {
	const n = 100
	run := func(backend Backend, step bool) []uint64 {
		f := newDiamond(t, n)
		ex := NewExecutor(Config{Backend: backend, BlockSize: 16})
		loops := []*Loop{f.writeA, f.writeB, f.sumAB, f.scaleC}
		if step {
			sp, err := BuildStepPlan("diamond", loops)
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.RunStepCtx(context.Background(), sp); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, l := range loops {
				if err := ex.Run(l); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := f.c.Sync(); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, n)
		for i, v := range f.c.Data() {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	ref := run(Serial, false)
	for _, b := range []Backend{Serial, ForkJoin, Dataflow} {
		got := run(b, true)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("step on %v differs from serial loop-at-a-time", b)
		}
	}
}

// TestStepAsyncErrorSurfacesOnStepFuture asserts an error from any
// member loop — here the middle one — resolves the step's future with
// it, even though a later loop fully overwrites the poisoned dat (which
// would heal the version chain and hide the error from per-loop
// futures).
func TestStepAsyncErrorSurfacesOnStepFuture(t *testing.T) {
	f := newDiamond(t, 16)
	boom := &Loop{Name: "boom", Set: f.cells,
		Args:   []Arg{ArgDat(f.c, IDIdx, nil, RW)},
		Kernel: func(v [][]float64) { panic("kaboom") }}
	overwrite := &Loop{Name: "overwrite", Set: f.cells,
		Args:   []Arg{ArgDat(f.c, IDIdx, nil, Write)},
		Kernel: func(v [][]float64) { v[0][0] = 7 }}
	sp, err := BuildStepPlan("failing", []*Loop{f.writeA, boom, overwrite})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(Config{Backend: Dataflow})
	werr := ex.RunStepAsyncCtx(context.Background(), sp).Wait()
	if werr == nil || !strings.Contains(werr.Error(), "kaboom") {
		t.Fatalf("step future resolved with %v, want the mid-step panic", werr)
	}
	// The overwrite healed c's chain: a later Sync is clean.
	if err := f.c.Sync(); err != nil {
		t.Fatalf("Sync after healing overwrite: %v", err)
	}
}

// TestStepCancellation asserts a canceled context fails the step future
// with the context error.
func TestStepCancellation(t *testing.T) {
	f := newDiamond(t, 16)
	sp, err := BuildStepPlan("d", []*Loop{f.writeA, f.writeB, f.sumAB})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(Config{Backend: Dataflow})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if werr := ex.RunStepCtx(ctx, sp); !errors.Is(werr, context.Canceled) {
		t.Fatalf("canceled step returned %v, want context.Canceled", werr)
	}
}
