package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"op2hpx/internal/hpx/sched"
)

// This file holds the differential property test of the dataflow backend:
// random programs (random sequences of loops with random access modes over
// shared dats, both direct and indirect-increment shapes) must produce
// results identical to serial execution in issue order, for any worker
// count. All kernels write integer-valued floats, so floating-point
// addition is exact and the comparison is order-independent — any mismatch
// is a real dependency bug, not FP noise.
//
// Every program runs rpReps times back to back. In stepped mode the
// dataflow run builds the program into one StepPlan — adjacent direct and
// reduction loops on cells fuse into multi-loop groups — and issues it
// rpReps times through RunStepAsyncCtx without waiting in between, so
// fused-group issue is checked against the serial oracle as well as
// per-loop issue.

// randomProgram describes one generated workload, replayable onto fresh
// state for each backend.
type randomProgram struct {
	ncells, nedges, nnodes int
	edgeMap                []int32
	steps                  []progStep
}

type progStep struct {
	kind    int // 0 direct, 1 indirect-inc, 2 reduction
	dat     int // index of cell dat (direct) or node dat (indirect)
	src     int // second cell dat read by direct steps
	loopID  int
	incSign float64
}

const (
	rpCellDats = 3
	rpNodeDats = 2
	rpReps     = 4
)

func genProgram(rng *rand.Rand) randomProgram {
	p := randomProgram{
		ncells: rng.Intn(300) + 50,
		nnodes: rng.Intn(100) + 20,
	}
	p.nedges = p.ncells // iterate "edges" as a set the same size as cells
	p.edgeMap = make([]int32, p.nedges*2)
	for i := range p.edgeMap {
		p.edgeMap[i] = int32(rng.Intn(p.nnodes))
	}
	nsteps := rng.Intn(12) + 3
	for s := 0; s < nsteps; s++ {
		p.steps = append(p.steps, progStep{
			kind:    rng.Intn(3),
			dat:     rng.Intn(rpCellDats),
			src:     rng.Intn(rpCellDats),
			loopID:  s,
			incSign: float64(1 - 2*rng.Intn(2)),
		})
	}
	return p
}

// run replays the program rpReps times on a fresh state under the given
// backend and returns all final dat contents plus reduction results.
// stepped issues each repetition as one pipelined step under Dataflow.
func (p randomProgram) run(backend Backend, workers int, stepped bool) ([][]float64, []float64, error) {
	cells := MustDeclSet(p.ncells, "cells")
	edges := MustDeclSet(p.nedges, "edges")
	nodes := MustDeclSet(p.nnodes, "nodes")
	pedge := MustDeclMap(edges, nodes, 2, p.edgeMap, "pedge")

	cellDats := make([]*Dat, rpCellDats)
	for i := range cellDats {
		cellDats[i] = MustDeclDat(cells, 1, nil, fmt.Sprintf("c%d", i))
		for e := 0; e < p.ncells; e++ {
			cellDats[i].Data()[e] = float64((e + i) % 5)
		}
	}
	nodeDats := make([]*Dat, rpNodeDats)
	for i := range nodeDats {
		nodeDats[i] = MustDeclDat(nodes, 1, nil, fmt.Sprintf("n%d", i))
	}
	edgeDats := make([]*Dat, rpCellDats)
	for i := range edgeDats {
		edgeDats[i] = MustDeclDat(edges, 1, nil, fmt.Sprintf("e%d", i))
		for e := 0; e < p.nedges; e++ {
			edgeDats[i].Data()[e] = float64((e*3 + i) % 7)
		}
	}

	pool := sched.NewPool(workers)
	defer pool.Close()
	ex := NewExecutor(Config{Backend: backend, Pool: pool})

	var reductions []float64
	var gbls []*Global
	var loops []*Loop
	for _, st := range p.steps {
		st := st
		switch st.kind {
		case 0: // direct: dat = dat + src + loopID (integer arithmetic)
			loops = append(loops, &Loop{
				Name: fmt.Sprintf("direct%d", st.loopID),
				Set:  cells,
				Args: []Arg{
					ArgDat(cellDats[st.src], IDIdx, nil, Read),
					ArgDat(cellDats[st.dat], IDIdx, nil, RW),
				},
				Kernel: func(v [][]float64) {
					v[1][0] = v[1][0] + v[0][0] + float64(st.loopID%3)
				},
			})
		case 1: // indirect: scatter edge dat values into a node dat
			nd := nodeDats[st.dat%rpNodeDats]
			loops = append(loops, &Loop{
				Name: fmt.Sprintf("scatter%d", st.loopID),
				Set:  edges,
				Args: []Arg{
					ArgDat(edgeDats[st.src], IDIdx, nil, Read),
					ArgDat(nd, 0, pedge, Inc),
					ArgDat(nd, 1, pedge, Inc),
				},
				Kernel: func(v [][]float64) {
					v[1][0] += st.incSign * v[0][0]
					v[2][0] -= st.incSign * 2 * v[0][0]
				},
			})
		case 2: // reduction over a cell dat
			g := MustDeclGlobal(1, nil, fmt.Sprintf("g%d", st.loopID))
			gbls = append(gbls, g)
			loops = append(loops, &Loop{
				Name: fmt.Sprintf("reduce%d", st.loopID),
				Set:  cells,
				Args: []Arg{
					ArgDat(cellDats[st.dat], IDIdx, nil, Read),
					ArgGbl(g, Inc),
				},
				Kernel: func(v [][]float64) {
					v[1][0] += v[0][0]
				},
			})
		}
	}

	switch {
	case backend == Dataflow && stepped:
		sp, err := BuildStepPlan("random", loops)
		if err != nil {
			return nil, nil, err
		}
		futs := make([]Future, rpReps)
		for r := range futs {
			futs[r] = ex.RunStepAsyncCtx(context.Background(), sp)
		}
		for _, f := range futs {
			if err := f.Wait(); err != nil {
				return nil, nil, err
			}
		}
	default:
		for r := 0; r < rpReps; r++ {
			for _, l := range loops {
				if backend == Dataflow {
					ex.RunAsync(l)
				} else if err := ex.Run(l); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	var out [][]float64
	for _, d := range append(append([]*Dat{}, cellDats...), nodeDats...) {
		if err := d.Sync(); err != nil {
			return nil, nil, err
		}
		out = append(out, append([]float64(nil), d.Data()...))
	}
	for _, g := range gbls {
		if err := g.Sync(); err != nil {
			return nil, nil, err
		}
		reductions = append(reductions, g.Data()[0])
	}
	return out, reductions, nil
}

func TestDataflowDifferentialAgainstSerial(t *testing.T) {
	f := func(seed int64, workersRaw uint8, stepped bool) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := genProgram(rng)
		workers := int(workersRaw)%8 + 1
		mode := "loops"
		if stepped {
			mode = "step"
		}

		refDats, refReds, err := prog.run(Serial, 1, false)
		if err != nil {
			t.Logf("seed %d: serial: %v", seed, err)
			return false
		}
		gotDats, gotReds, err := prog.run(Dataflow, workers, stepped)
		if err != nil {
			t.Logf("seed %d workers %d mode %s: dataflow: %v", seed, workers, mode, err)
			return false
		}
		for i := range refDats {
			for j := range refDats[i] {
				if refDats[i][j] != gotDats[i][j] {
					t.Logf("seed %d workers %d mode %s: dat %d elem %d: serial %g, dataflow %g",
						seed, workers, mode, i, j, refDats[i][j], gotDats[i][j])
					return false
				}
			}
		}
		for i := range refReds {
			if refReds[i] != gotReds[i] {
				t.Logf("seed %d workers %d mode %s: reduction %d: serial %g, dataflow %g",
					seed, workers, mode, i, refReds[i], gotReds[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestForkJoinDifferentialAgainstSerial(t *testing.T) {
	f := func(seed int64, workersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := genProgram(rng)
		workers := int(workersRaw)%8 + 1
		refDats, refReds, err := prog.run(Serial, 1, false)
		if err != nil {
			return false
		}
		gotDats, gotReds, err := prog.run(ForkJoin, workers, false)
		if err != nil {
			return false
		}
		for i := range refDats {
			for j := range refDats[i] {
				if refDats[i][j] != gotDats[i][j] {
					return false
				}
			}
		}
		for i := range refReds {
			if refReds[i] != gotReds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
