// Package gentest compiles and executes the committed output of the OP2
// translator (airfoil_gen.go, dataflow mode) and checks it end-to-end
// against the hand-written airfoil application: same mesh, same kernels,
// same number of iterations — results must agree.
package gentest

import (
	"math"
	"testing"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/core"
	"op2hpx/internal/hpx/sched"
	"op2hpx/op2"
)

// kernels adapts the airfoil kernel functions to the generated Kernels
// interface — the user-written kernel headers of OP2.
type kernels struct {
	c airfoil.Constants
}

func (k *kernels) SaveSoln(q, qold []float64) { airfoil.SaveSoln(q, qold) }

func (k *kernels) AdtCalc(x1, x2, x3, x4, q, adt []float64) {
	k.c.AdtCalc(x1, x2, x3, x4, q, adt)
}

func (k *kernels) ResCalc(x1, x2, q1, q2, adt1, adt2, res1, res2 []float64) {
	k.c.ResCalc(x1, x2, q1, q2, adt1, adt2, res1, res2)
}

func (k *kernels) BresCalc(x1, x2, q1, adt1, res1, bound []float64) {
	k.c.BresCalc(x1, x2, q1, adt1, res1, bound)
}

func (k *kernels) Update(qold, q, res, adt, rms []float64) {
	airfoil.Update(qold, q, res, adt, rms)
}

// meshParams extracts the generated program's runtime parameters from the
// synthetic mesh generator.
func meshParams(m *airfoil.Mesh, c airfoil.Constants) Params {
	return Params{
		Nnode:      m.Nodes.Size(),
		Nedge:      m.Edges.Size(),
		Nbedge:     m.Bedges.Size(),
		Ncell:      m.Cells.Size(),
		EdgeData:   m.Pedge.Data(),
		EcellData:  m.Pecell.Data(),
		BedgeData:  m.Pbedge.Data(),
		BecellData: m.Pbecell.Data(),
		CellData:   m.Pcell.Data(),
		XData:      m.X.Data(),
		QData:      m.Q.Data(),
		BoundData:  m.Bound.Data(),
		Gam:        []float64{c.Gam},
		Gm1:        []float64{c.Gm1},
		Cfl:        []float64{c.Cfl},
		Eps:        []float64{c.Eps},
		Qinf:       c.Qinf[:],
	}
}

func TestGeneratedProgramMatchesHandWrittenApp(t *testing.T) {
	const nx, ny, iters = 24, 14, 4
	consts := airfoil.DefaultConstants()

	// Reference: hand-written app on the public facade, serial backend.
	refRt := op2.MustNew(op2.WithBackend(op2.Serial), op2.WithPoolSize(1))
	defer refRt.Close()
	refApp, err := airfoil.NewApp(nx, ny, refRt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refApp.Run(iters); err != nil {
		t.Fatal(err)
	}

	// Generated program, dataflow backend, same mesh data.
	mesh, err := airfoil.NewMesh(nx, ny, consts)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(4)
	defer pool.Close()
	ex := core.NewExecutor(core.Config{Backend: core.Dataflow, Pool: pool})
	pr, err := New(ex, &kernels{c: consts}, meshParams(mesh, consts))
	if err != nil {
		t.Fatal(err)
	}

	// The time-march of airfoil.cpp, written against the generated
	// asynchronous API: every call returns a future; the dataflow DAG
	// orders them; the only host sync is at the end.
	var futs []core.Future
	for i := 0; i < iters; i++ {
		futs = append(futs, pr.SaveSoln())
		for k := 0; k < 2; k++ {
			futs = append(futs, pr.AdtCalc())
			futs = append(futs, pr.ResCalc())
			futs = append(futs, pr.BresCalc())
			futs = append(futs, pr.Update())
		}
	}
	if err := pr.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if !f.Ready() {
			t.Fatalf("loop future %d not ready after Sync", i)
		}
	}

	// Same physics as the hand-written app, bit for bit: the generated
	// program calls the per-element kernels, the app runs its inline
	// bodies.
	qGen := pr.PQ.Data()
	qRef := refApp.M.Q.Data()
	if len(qGen) != len(qRef) {
		t.Fatalf("len(q) = %d vs %d", len(qGen), len(qRef))
	}
	for i := range qGen {
		if math.Float64bits(qGen[i]) != math.Float64bits(qRef[i]) {
			t.Fatalf("q[%d]: generated %.17g vs reference %.17g (not bitwise)", i, qGen[i], qRef[i])
		}
	}
	// The rms reduction is bitwise too: every backend folds it per plan
	// block, whatever the chunker.
	rmsGen, rmsRef := pr.Rms.Data()[0], refApp.Rms.Data()[0]
	if math.Float64bits(rmsGen) != math.Float64bits(rmsRef) {
		t.Fatalf("rms: generated %.17g vs reference %.17g (not bitwise)", rmsGen, rmsRef)
	}
}

func TestGeneratedProgramValidatesParams(t *testing.T) {
	pool := sched.NewPool(1)
	defer pool.Close()
	ex := core.NewExecutor(core.Config{Backend: core.Serial, Pool: pool})
	// Wrong-size map data must be rejected by the declarations.
	_, err := New(ex, &kernels{c: airfoil.DefaultConstants()}, Params{
		Nnode: 10, Nedge: 5, Nbedge: 2, Ncell: 4,
		EdgeData: []int32{0}, // wrong length
	})
	if err == nil {
		t.Fatal("invalid params accepted")
	}
}
