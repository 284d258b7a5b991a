package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"op2hpx/internal/hpx"
)

// fuseFixture builds an airfoil-shaped step: save/adt/update are direct
// loops over cells, res is an indirect incrementing loop over edges.
type fuseFixture struct {
	cells, edges, nodes *Set
	pe, pc              *Map
	q, qold, adt, res   *Dat
	x                   *Dat
	rms                 *Global
	save, adtc, resc    *Loop
	upd                 *Loop
}

func newFuseFixture(t *testing.T, ncells int) *fuseFixture {
	t.Helper()
	f := &fuseFixture{}
	f.cells = MustDeclSet(ncells, "cells")
	f.edges = MustDeclSet(2*ncells, "edges")
	f.nodes = MustDeclSet(ncells+20, "nodes")
	md := make([]int32, 2*ncells*2)
	for i := range md {
		md[i] = int32((i*7 + 3) % ncells)
	}
	f.pe = MustDeclMap(f.edges, f.cells, 2, md, "pe")
	mx := make([]int32, ncells*4)
	for i := range mx {
		mx[i] = int32((i * 5) % (ncells + 20))
	}
	f.pc = MustDeclMap(f.cells, f.nodes, 4, mx, "pc")
	init := make([]float64, ncells)
	for i := range init {
		init[i] = 1 + float64(i)*0.001
	}
	f.q = MustDeclDat(f.cells, 1, init, "q")
	f.qold = MustDeclDat(f.cells, 1, nil, "qold")
	f.adt = MustDeclDat(f.cells, 1, nil, "adt")
	f.res = MustDeclDat(f.cells, 1, nil, "res")
	xinit := make([]float64, f.nodes.Size()*2)
	for i := range xinit {
		xinit[i] = 0.5 + float64(i)*0.01
	}
	f.x = MustDeclDat(f.nodes, 2, xinit, "x")
	f.rms = MustDeclGlobal(1, nil, "rms")

	f.save = &Loop{Name: "save", Set: f.cells,
		Args: []Arg{ArgDat(f.q, IDIdx, nil, Read), ArgDat(f.qold, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			copy(f.qold.Data()[lo:hi], f.q.Data()[lo:hi])
		})}
	f.adtc = &Loop{Name: "adt", Set: f.cells,
		Args: []Arg{ArgDat(f.x, 0, f.pc, Read), ArgDat(f.q, IDIdx, nil, Read), ArgDat(f.adt, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {
			xd, qd, ad := f.x.Data(), f.q.Data(), f.adt.Data()
			for e := lo; e < hi; e++ {
				ad[e] = qd[e]*0.5 + xd[2*int(f.pc.At(e, 0))]
			}
		})}
	f.resc = &Loop{Name: "res", Set: f.edges,
		Args: []Arg{ArgDat(f.q, 0, f.pe, Read), ArgDat(f.res, 0, f.pe, Inc), ArgDat(f.res, 1, f.pe, Inc)},
		Kernel: func(v [][]float64) {
			d := 0.25 * (v[0][0] - 1)
			v[1][0] += d
			v[2][0] -= d
		}}
	f.upd = &Loop{Name: "upd", Set: f.cells,
		Args: []Arg{ArgDat(f.qold, IDIdx, nil, Read), ArgDat(f.q, IDIdx, nil, Write),
			ArgDat(f.res, IDIdx, nil, RW), ArgDat(f.adt, IDIdx, nil, Read), ArgGbl(f.rms, Inc)},
		Body: rangeOnly(func(lo, hi int, scratch []float64) {
			qd, qo, rd, ad := f.q.Data(), f.qold.Data(), f.res.Data(), f.adt.Data()
			for e := lo; e < hi; e++ {
				del := rd[e] * 0.1 / (ad[e] + 2)
				qd[e] = qo[e] - del
				rd[e] = 0
				scratch[0] += del * del
			}
		})}
	return f
}

func (f *fuseFixture) stepLoops() []*Loop {
	return []*Loop{f.save, f.adtc, f.resc, f.upd, f.adtc, f.resc, f.upd}
}

// TestStepFusionGrouping asserts BuildStepPlan fuses exactly the
// airfoil-shaped runs: save+adt (independent direct loops over cells)
// and upd+adt (element-wise RAW through q and WAR through adt), while
// the indirect res loop and the trailing upd stay unfused.
func TestStepFusionGrouping(t *testing.T) {
	f := newFuseFixture(t, 100)
	sp, err := BuildStepPlan("iter", f.stepLoops())
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.FusedGroups(); got != 2 {
		t.Errorf("FusedGroups = %d, want 2", got)
	}
	if got := sp.FusedLoops(); got != 4 {
		t.Errorf("FusedLoops = %d, want 4", got)
	}
	var names []string
	for _, g := range sp.groups {
		names = append(names, g.name)
	}
	want := []string{"fused(save+adt)", "res", "fused(upd+adt)", "res", "upd"}
	if len(names) != len(want) {
		t.Fatalf("groups = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("group %d = %q, want %q (all: %v)", i, names[i], want[i], names)
		}
	}
}

// TestFusionBlockedByIndirectDependency asserts a loop reading a dat
// indirectly does not fuse with a loop writing that dat — the read
// reaches across elements, so chunk-interleaved execution would observe
// unwritten values.
func TestFusionBlockedByIndirectDependency(t *testing.T) {
	cells := MustDeclSet(50, "cells")
	md := make([]int32, 50)
	for i := range md {
		md[i] = int32((i + 1) % 50)
	}
	shift := MustDeclMap(cells, cells, 1, md, "shift")
	d := MustDeclDat(cells, 1, nil, "d")
	o := MustDeclDat(cells, 1, nil, "o")
	w := &Loop{Name: "w", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {})}
	r := &Loop{Name: "r", Set: cells,
		Args: []Arg{ArgDat(d, 0, shift, Read), ArgDat(o, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {})}
	sp, err := BuildStepPlan("s", []*Loop{w, r})
	if err != nil {
		t.Fatal(err)
	}
	if sp.FusedGroups() != 0 {
		t.Fatalf("indirect RAW fused: groups %d", sp.FusedGroups())
	}
	// Without the dependency (r reads a dat nobody writes) the same
	// shapes fuse.
	rFree := &Loop{Name: "rfree", Set: cells,
		Args: []Arg{ArgDat(o, 0, shift, Read), ArgDat(d, IDIdx, nil, Write)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {})}
	sp2, err := BuildStepPlan("s2", []*Loop{w, rFree})
	if err != nil {
		t.Fatal(err)
	}
	if sp2.FusedGroups() != 1 {
		t.Fatalf("dependency-free direct loops did not fuse: groups %d", sp2.FusedGroups())
	}
}

// TestFusedStepMatchesUnfusedBitwise runs the airfoil-shaped step under
// the Dataflow backend (fused groups active) and ForkJoin (unfused)
// against the Serial backend (strict program order), over 15 plan
// blocks in one chunk or in many, asserting bitwise-identical flow
// fields and reduction.
func TestFusedStepMatchesUnfusedBitwise(t *testing.T) {
	const ncells, iters = 237, 3
	type result struct {
		rms uint64
		q   []uint64
	}
	run := func(backend Backend, chunk int) result {
		t.Helper()
		f := newFuseFixture(t, ncells)
		sp, err := BuildStepPlan("iter", f.stepLoops())
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(Config{Backend: backend, Chunker: hpx.StaticChunker(chunk), BlockSize: 16})
		for i := 0; i < iters; i++ {
			if err := ex.RunStepCtx(context.Background(), sp); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.q.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.rms.Sync(); err != nil {
			t.Fatal(err)
		}
		out := result{rms: math.Float64bits(f.rms.Data()[0])}
		for _, v := range f.q.Data() {
			out.q = append(out.q, math.Float64bits(v))
		}
		return out
	}
	ref := run(Serial, 1<<20)
	for _, tc := range []struct {
		name    string
		backend Backend
		chunk   int
	}{
		{"dataflow-whole", Dataflow, 1 << 20},
		{"dataflow-1", Dataflow, 1},
		{"dataflow-4", Dataflow, 4},
		{"forkjoin-1", ForkJoin, 1},
	} {
		got := run(tc.backend, tc.chunk)
		if got.rms != ref.rms {
			t.Errorf("%s: rms differs bitwise from serial", tc.name)
		}
		for i := range ref.q {
			if got.q[i] != ref.q[i] {
				t.Fatalf("%s: q[%d] differs bitwise from serial", tc.name, i)
			}
		}
	}
}

// TestFusedMemberFailureIsolation asserts per-loop failure semantics
// survive fusion: a panicking member fails the step, a member hard-
// depending on it fails with a dependency error, and an independent
// trailing overwrite member still runs to completion — healing the
// version chain exactly as per-loop issue would.
func TestFusedMemberFailureIsolation(t *testing.T) {
	cells := MustDeclSet(64, "cells")
	c := MustDeclDat(cells, 1, nil, "c")
	o := MustDeclDat(cells, 1, nil, "o")
	boom := &Loop{Name: "boom", Set: cells,
		Args:   []Arg{ArgDat(c, IDIdx, nil, RW)},
		Kernel: func(v [][]float64) { panic("kaboom") }}
	dependent := &Loop{Name: "dependent", Set: cells,
		Args:   []Arg{ArgDat(c, IDIdx, nil, Read), ArgDat(o, IDIdx, nil, Write)},
		Kernel: func(v [][]float64) { v[1][0] = v[0][0] }}
	overwrite := &Loop{Name: "overwrite", Set: cells,
		Args:   []Arg{ArgDat(c, IDIdx, nil, Write)},
		Kernel: func(v [][]float64) { v[0][0] = 7 }}
	sp, err := BuildStepPlan("failing", []*Loop{boom, dependent, overwrite})
	if err != nil {
		t.Fatal(err)
	}
	if sp.FusedGroups() != 1 || sp.FusedLoops() != 3 {
		t.Fatalf("fixture did not fuse: groups=%d loops=%d", sp.FusedGroups(), sp.FusedLoops())
	}
	ex := NewExecutor(Config{Backend: Dataflow})
	werr := ex.RunStepAsyncCtx(context.Background(), sp).Wait()
	if werr == nil || !strings.Contains(werr.Error(), "kaboom") {
		t.Fatalf("step future resolved with %v, want the member panic", werr)
	}
	// The overwrite member survived and healed c's chain.
	if err := c.Sync(); err != nil {
		t.Fatalf("Sync after surviving overwrite member: %v", err)
	}
	for i, v := range c.Data() {
		if v != 7 {
			t.Fatalf("c[%d] = %g, want 7 (overwrite member must complete)", i, v)
		}
	}
	// The dependent member failed through the chain: o's Sync reports it.
	if err := o.Sync(); err == nil || !strings.Contains(err.Error(), "dependency failed") {
		t.Fatalf("dependent member's chain error = %v, want dependency failure", err)
	}
}
