// Package aero implements the second canonical OP2 workload family (the
// aero/FEM demo distributed with OP2, which the paper's introduction
// motivates alongside Airfoil): a finite-element Poisson solver with a
// matrix-free conjugate-gradient iteration expressed entirely as OP2
// parallel loops —
//
//	res      (over cells):  v += K_e · p   gathered/scattered via pcell (OP_INC)
//	dirichlet(over bnodes): zero boundary rows           (indirect OP_WRITE)
//	dotPV    (over nodes):  Σ p·v                        (OP_INC global)
//	updateUR (over nodes):  u += α p, r -= α v, v = 0, Σ r·r
//	updateP  (over nodes):  p = r + β p
//
// Unlike Airfoil, the CG loop consumes a global reduction every iteration
// (α = r·r / p·v), so each iteration contains a genuine host
// synchronization point even under the dataflow backend — the reduction
// future must resolve before the next loops can be issued with the right
// scalars. That makes aero the stress test for Global version chains.
//
// Every loop runs an inline range body, the shape of OP2's generated
// loop (Fig. 4): the kernel arithmetic sits in the loop over the range,
// with no per-element view slices or kernel call. The generic view
// kernels stay attached as the reference the bodies are pinned to.
package aero

import (
	"context"
	"fmt"
	"math"

	"op2hpx/op2"
)

// Problem is the assembled OP2 declaration of one Poisson problem on an
// n×n quad grid over the unit square, with Dirichlet boundary conditions
// taken from the exact solution uexact(x, y) = x² + y² (so f = -∇²u = -4).
type Problem struct {
	N int // grid cells per side

	Nodes  *op2.Set
	Cells  *op2.Set
	Bnodes *op2.Set

	Pcell  *op2.Map // cell  -> 4 corner nodes
	Pbnode *op2.Map // bnode -> 1 node

	X *op2.Dat // nodes, dim 2: coordinates
	U *op2.Dat // nodes: solution
	R *op2.Dat // nodes: residual
	P *op2.Dat // nodes: search direction
	V *op2.Dat // nodes: A·p
	B *op2.Dat // nodes: right-hand side
	// boundary marks nodes with Dirichlet rows (1.0 on boundary).
	Bound *op2.Dat

	// lift carries the Dirichlet boundary values; Solution() adds it to
	// the interior CG correction.
	lift []float64

	RR *op2.Global // Σ r·r
	PV *op2.Global // Σ p·v

	// alpha and beta carry the CG step scalars α = r·r / p·v and
	// β = r·r / r·r_old from the host into updateUR and updateP.
	alpha, beta *op2.Global

	rt *op2.Runtime

	resLoop, dirichletLoop, dotLoop     *op2.Loop
	initLoop, updateURLoop, updatePLoop *op2.Loop
	// applyStep is v = A·p expressed as one Step graph: the matrix-free
	// SpMV, the Dirichlet row zeroing and the p·v dot product — the
	// longest stretch of the CG iteration with no host synchronization,
	// so the runtime sees its dataflow DAG as a unit. The α/β updates
	// stay individual loops: each consumes a reduction the host reads in
	// between, which is exactly where a step must be split.
	applyStep *op2.Step
}

// NewProblem builds the FEM problem on an n×n grid, executing its loops
// through the public op2 runtime.
func NewProblem(n int, rt *op2.Runtime) (*Problem, error) {
	return newProblem(n, rt, false)
}

// newProblem is NewProblem; generic leaves the range bodies off, so every
// loop runs its Kernel closure through the generic view binder.
func newProblem(n int, rt *op2.Runtime, generic bool) (*Problem, error) {
	if n < 2 {
		return nil, fmt.Errorf("aero: grid needs n >= 2, got %d", n)
	}
	pr := &Problem{N: n, rt: rt}
	nn := (n + 1) * (n + 1)
	node := func(i, j int) int32 { return int32(i*(n+1) + j) }

	var err error
	if pr.Nodes, err = op2.DeclSet(nn, "nodes"); err != nil {
		return nil, err
	}
	if pr.Cells, err = op2.DeclSet(n*n, "cells"); err != nil {
		return nil, err
	}

	pcell := make([]int32, 0, 4*n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pcell = append(pcell, node(i, j), node(i+1, j), node(i+1, j+1), node(i, j+1))
		}
	}
	if pr.Pcell, err = op2.DeclMap(pr.Cells, pr.Nodes, 4, pcell, "pcell"); err != nil {
		return nil, err
	}

	var bnodes []int32
	xs := make([]float64, 2*nn)
	bound := make([]float64, nn)
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			id := node(i, j)
			xs[2*id] = float64(i) / float64(n)
			xs[2*id+1] = float64(j) / float64(n)
			if i == 0 || j == 0 || i == n || j == n {
				bnodes = append(bnodes, id)
				bound[id] = 1
			}
		}
	}
	if pr.Bnodes, err = op2.DeclSet(len(bnodes), "bnodes"); err != nil {
		return nil, err
	}
	if pr.Pbnode, err = op2.DeclMap(pr.Bnodes, pr.Nodes, 1, bnodes, "pbnode"); err != nil {
		return nil, err
	}

	if pr.X, err = op2.DeclDat(pr.Nodes, 2, xs, "p_x"); err != nil {
		return nil, err
	}
	for _, d := range []struct {
		dat  **op2.Dat
		name string
	}{
		{&pr.U, "p_u"}, {&pr.R, "p_r"}, {&pr.P, "p_p"}, {&pr.V, "p_v"}, {&pr.B, "p_b"},
	} {
		if *d.dat, err = op2.DeclDat(pr.Nodes, 1, nil, d.name); err != nil {
			return nil, err
		}
	}
	if pr.Bound, err = op2.DeclDat(pr.Nodes, 1, bound, "p_bound"); err != nil {
		return nil, err
	}
	if pr.RR, err = op2.DeclGlobal(1, nil, "rr"); err != nil {
		return nil, err
	}
	if pr.PV, err = op2.DeclGlobal(1, nil, "pv"); err != nil {
		return nil, err
	}
	if pr.alpha, err = op2.DeclGlobal(1, nil, "alpha"); err != nil {
		return nil, err
	}
	if pr.beta, err = op2.DeclGlobal(1, nil, "beta"); err != nil {
		return nil, err
	}
	pr.assemble()
	pr.buildLoops(generic)
	return pr, nil
}

// Exact is the manufactured solution the boundary conditions encode.
func Exact(x, y float64) float64 { return x*x + y*y }

// assemble computes the right-hand side: ∫ f φ_i with f = -∇²uexact = -4,
// folded with the Dirichlet lift (boundary rows become identity rows with
// b_i = uexact). Interior load uses the lumped 4-point rule per cell.
func (pr *Problem) assemble() {
	n := pr.N
	h := 1.0 / float64(n)
	bvals := pr.B.Data()
	xd := pr.X.Data()
	bound := pr.Bound.Data()
	// Lumped mass load: each interior corner of each cell receives
	// f·h²/4 with f = -4.
	for c := 0; c < pr.Cells.Size(); c++ {
		for k := 0; k < 4; k++ {
			nd := pr.Pcell.At(c, k)
			if bound[nd] == 0 {
				bvals[nd] += -4 * h * h / 4
			}
		}
	}
	// Dirichlet lift: the boundary values g enter the right-hand side as
	// b_i -= (K·g)_i, the boundary rows of the CG system are removed
	// entirely (b and every CG vector stay zero there), and the lift is
	// added back in Solution(). This keeps the CG operator symmetric
	// positive definite on the interior subspace.
	g := make([]float64, pr.Nodes.Size())
	for nd := 0; nd < pr.Nodes.Size(); nd++ {
		if bound[nd] == 1 {
			g[nd] = Exact(xd[2*nd], xd[2*nd+1])
		}
	}
	kg := make([]float64, pr.Nodes.Size())
	pr.applyStiffness(g, kg)
	for nd := 0; nd < pr.Nodes.Size(); nd++ {
		if bound[nd] == 1 {
			bvals[nd] = 0
		} else {
			bvals[nd] -= kg[nd]
		}
	}
	pr.lift = g
}

// The three distinct entries of the element stiffness matrix: a corner
// with itself, with a corner sharing an edge, with the opposite corner.
const (
	keSelf = 2.0 / 3
	keEdge = -1.0 / 6
	keOpp  = -1.0 / 3
)

// ke is the 4×4 element stiffness matrix of the bilinear quad on a square
// cell for the Laplacian (independent of h).
var ke = [4][4]float64{
	{keSelf, keEdge, keOpp, keEdge},
	{keEdge, keSelf, keEdge, keOpp},
	{keOpp, keEdge, keSelf, keEdge},
	{keEdge, keOpp, keEdge, keSelf},
}

// applyStiffness computes out = K·in sequentially (used for assembly).
func (pr *Problem) applyStiffness(in, out []float64) {
	for c := 0; c < pr.Cells.Size(); c++ {
		var idx [4]int
		for k := 0; k < 4; k++ {
			idx[k] = pr.Pcell.At(c, k)
		}
		for a := 0; a < 4; a++ {
			acc := 0.0
			for b := 0; b < 4; b++ {
				acc += ke[a][b] * in[idx[b]]
			}
			out[idx[a]] += acc
		}
	}
}

// buildLoops declares the six CG loops once; the runtime caches their
// plans and calibration across iterations and solves. Each loop carries
// its generic view kernel, the reference definition that accesscheck
// reads, and, unless generic is set, an inline range body (see resBody).
func (pr *Problem) buildLoops(generic bool) {
	attach := func(lp *op2.Loop, b op2.Binder) *op2.Loop {
		if generic {
			return lp
		}
		return lp.Body(b)
	}
	// res: v += K_e · p, the matrix-free SpMV over cells (OP_INC).
	pr.resLoop = attach(pr.rt.ParLoop("res", pr.Cells,
		op2.DatArg(pr.P, 0, pr.Pcell, op2.Read),
		op2.DatArg(pr.P, 1, pr.Pcell, op2.Read),
		op2.DatArg(pr.P, 2, pr.Pcell, op2.Read),
		op2.DatArg(pr.P, 3, pr.Pcell, op2.Read),
		op2.DatArg(pr.V, 0, pr.Pcell, op2.Inc),
		op2.DatArg(pr.V, 1, pr.Pcell, op2.Inc),
		op2.DatArg(pr.V, 2, pr.Pcell, op2.Inc),
		op2.DatArg(pr.V, 3, pr.Pcell, op2.Inc),
	).Kernel(func(v [][]float64) {
		for a := 0; a < 4; a++ {
			acc := 0.0
			for b := 0; b < 4; b++ {
				acc += ke[a][b] * v[b][0]
			}
			v[4+a][0] += acc
		}
	}), pr.resBody())
	// dirichlet: boundary rows are removed from the CG system — their
	// A·p entries are zeroed so every CG vector stays zero on the
	// boundary subspace.
	pr.dirichletLoop = attach(pr.rt.ParLoop("dirichlet", pr.Bnodes,
		op2.DatArg(pr.V, 0, pr.Pbnode, op2.Write),
	).Kernel(func(v [][]float64) {
		v[0][0] = 0
	}), pr.dirichletBody())
	// dotPV: Σ p·v.
	pr.dotLoop = attach(pr.rt.ParLoop("dotPV", pr.Nodes,
		op2.DirectArg(pr.P, op2.Read),
		op2.DirectArg(pr.V, op2.Read),
		op2.GblArg(pr.PV, op2.Inc),
	).Kernel(func(v [][]float64) {
		v[2][0] += v[0][0] * v[1][0]
	}), pr.dotPVBody())
	pr.applyStep = pr.rt.Step("apply_A").Then(pr.resLoop).Then(pr.dirichletLoop).Then(pr.dotLoop)
	// init: u = 0, r = b, p = r, v = 0, Σ r·r.
	pr.initLoop = attach(pr.rt.ParLoop("init_cg", pr.Nodes,
		op2.DirectArg(pr.B, op2.Read),
		op2.DirectArg(pr.U, op2.Write),
		op2.DirectArg(pr.R, op2.Write),
		op2.DirectArg(pr.P, op2.Write),
		op2.DirectArg(pr.V, op2.Write),
		op2.GblArg(pr.RR, op2.Inc),
	).Kernel(func(v [][]float64) {
		v[1][0] = 0
		v[2][0] = v[0][0]
		v[3][0] = v[0][0]
		v[4][0] = 0
		v[5][0] += v[0][0] * v[0][0]
	}), pr.initBody())
	// updateUR: u += α p, r -= α v, v = 0, Σ r·r. α changes every CG
	// iteration; the loop reads it through the alpha Global.
	pr.updateURLoop = attach(pr.rt.ParLoop("updateUR", pr.Nodes,
		op2.DirectArg(pr.P, op2.Read),
		op2.DirectArg(pr.U, op2.RW),
		op2.DirectArg(pr.R, op2.RW),
		op2.DirectArg(pr.V, op2.RW),
		op2.GblArg(pr.alpha, op2.Read),
		op2.GblArg(pr.RR, op2.Inc),
	).Kernel(func(v [][]float64) {
		a := v[4][0]
		v[1][0] += a * v[0][0]
		v[2][0] -= a * v[3][0]
		v[3][0] = 0
		v[5][0] += v[2][0] * v[2][0]
	}), pr.updateURBody())
	// updateP: the β-dependent direction update p = r + β p.
	pr.updatePLoop = attach(pr.rt.ParLoop("updateP", pr.Nodes,
		op2.DirectArg(pr.R, op2.Read),
		op2.DirectArg(pr.P, op2.RW),
		op2.GblArg(pr.beta, op2.Read),
	).Kernel(func(v [][]float64) {
		v[1][0] = v[0][0] + v[2][0]*v[1][0]
	}), pr.updatePBody())
}

// The range bodies below have the shape of OP2's generated loops (Fig. 4):
// the kernel arithmetic sits inline in the loop over the range, so a loop
// costs its arithmetic and its memory traffic rather than a view slice
// per argument and a closure call per element. The Kernel closures above
// stay the reference; every expression here keeps their form and order,
// so the two paths agree bit for bit (TestBodiesMatchKernels pins that).
// res unrolls the kernel's 4×4 loop over ke's named entries: the same
// products, summed from 0.0 in the same order. Each body resolves its
// arrays through the Bind once. Read globals (α, β) are read from the
// Global's host slice captured at bind time, as the generic binder reads
// them, and reductions keep their partial in a register across the range
// and store it to scratch[0] once.

func (pr *Problem) resBody() op2.Binder {
	return func(b op2.Bind) op2.RangeBody {
		p, v := b.Dat(pr.P), b.Dat(pr.V)
		pc := b.Map(pr.Pcell)
		return func(lo, hi int, _ []float64) {
			for e := lo; e < hi; e++ {
				c := (*[4]int32)(pc[4*e:])
				p0, p1, p2, p3 := p[c[0]], p[c[1]], p[c[2]], p[c[3]]
				// Row a of ke·p, summed in column order from 0.0.
				acc := 0.0
				acc += keSelf * p0
				acc += keEdge * p1
				acc += keOpp * p2
				acc += keEdge * p3
				v[c[0]] += acc
				acc = 0.0
				acc += keEdge * p0
				acc += keSelf * p1
				acc += keEdge * p2
				acc += keOpp * p3
				v[c[1]] += acc
				acc = 0.0
				acc += keOpp * p0
				acc += keEdge * p1
				acc += keSelf * p2
				acc += keEdge * p3
				v[c[2]] += acc
				acc = 0.0
				acc += keEdge * p0
				acc += keOpp * p1
				acc += keEdge * p2
				acc += keSelf * p3
				v[c[3]] += acc
			}
		}
	}
}

func (pr *Problem) dirichletBody() op2.Binder {
	return func(b op2.Bind) op2.RangeBody {
		v := b.Dat(pr.V)
		pb := b.Map(pr.Pbnode)
		return func(lo, hi int, _ []float64) {
			for _, nd := range pb[lo:hi] {
				v[nd] = 0
			}
		}
	}
}

func (pr *Problem) dotPVBody() op2.Binder {
	return func(b op2.Bind) op2.RangeBody {
		p, v := b.Dat(pr.P), b.Dat(pr.V)
		return func(lo, hi int, scratch []float64) {
			p, v := p[lo:hi], v[lo:hi]
			pv := scratch[0]
			for e := range p {
				pv += p[e] * v[e]
			}
			scratch[0] = pv
		}
	}
}

func (pr *Problem) initBody() op2.Binder {
	return func(b op2.Bind) op2.RangeBody {
		bv, u, r, p, v := b.Dat(pr.B), b.Dat(pr.U), b.Dat(pr.R), b.Dat(pr.P), b.Dat(pr.V)
		return func(lo, hi int, scratch []float64) {
			bv, u, r, p, v := bv[lo:hi], u[lo:hi], r[lo:hi], p[lo:hi], v[lo:hi]
			rr := scratch[0]
			for e := range bv {
				u[e] = 0
				r[e] = bv[e]
				p[e] = bv[e]
				v[e] = 0
				rr += bv[e] * bv[e]
			}
			scratch[0] = rr
		}
	}
}

func (pr *Problem) updateURBody() op2.Binder {
	return func(b op2.Bind) op2.RangeBody {
		alpha := pr.alpha.Data()
		p, u, r, v := b.Dat(pr.P), b.Dat(pr.U), b.Dat(pr.R), b.Dat(pr.V)
		return func(lo, hi int, scratch []float64) {
			p, u, r, v := p[lo:hi], u[lo:hi], r[lo:hi], v[lo:hi]
			a := alpha[0]
			rr := scratch[0]
			for e := range p {
				u[e] += a * p[e]
				r[e] -= a * v[e]
				v[e] = 0
				rr += r[e] * r[e]
			}
			scratch[0] = rr
		}
	}
}

func (pr *Problem) updatePBody() op2.Binder {
	return func(b op2.Bind) op2.RangeBody {
		beta := pr.beta.Data()
		r, p := b.Dat(pr.R), b.Dat(pr.P)
		return func(lo, hi int, _ []float64) {
			r, p := r[lo:hi], p[lo:hi]
			bt := beta[0]
			for e := range p {
				p[e] = r[e] + bt*p[e]
			}
		}
	}
}

// Solve runs conjugate gradients until the residual norm falls below tol
// or maxIter iterations elapse, returning the final ‖r‖ and iteration
// count. Every iteration reads the two reduction globals on the host —
// the CG scalar recurrence — which in dataflow mode is the per-iteration
// synchronization point.
func (pr *Problem) Solve(tol float64, maxIter int) (res float64, iters int, err error) {
	ctx := context.Background()
	run := func(l *op2.Loop) error { return l.Run(ctx) }

	if err := pr.RR.Set([]float64{0}); err != nil {
		return 0, 0, err
	}
	if err := run(pr.initLoop); err != nil {
		return 0, 0, err
	}
	if err := pr.RR.Sync(); err != nil {
		return 0, 0, err
	}
	rr := pr.RR.Data()[0]

	for iters = 0; iters < maxIter && math.Sqrt(rr) > tol; iters++ {
		// v = A p followed by the p·v reduction, issued as one Step (the
		// SpMV, Dirichlet rows and dot product share no host sync). The
		// reduction target is reset before the step is issued.
		if err := pr.PV.Set([]float64{0}); err != nil {
			return 0, iters, err
		}
		if err := pr.applyStep.Run(ctx); err != nil {
			return 0, iters, err
		}
		if err := pr.PV.Sync(); err != nil {
			return 0, iters, err
		}
		pv := pr.PV.Data()[0]
		if pv == 0 {
			break
		}
		if err := pr.alpha.Set([]float64{rr / pv}); err != nil {
			return 0, iters, err
		}
		rrOld := rr
		if err := pr.RR.Set([]float64{0}); err != nil {
			return 0, iters, err
		}
		if err := run(pr.updateURLoop); err != nil {
			return 0, iters, err
		}
		if err := pr.RR.Sync(); err != nil {
			return 0, iters, err
		}
		rr = pr.RR.Data()[0]
		if err := pr.beta.Set([]float64{rr / rrOld}); err != nil {
			return 0, iters, err
		}
		if err := run(pr.updatePLoop); err != nil {
			return 0, iters, err
		}
	}
	if err := pr.Sync(); err != nil {
		return 0, iters, err
	}
	return math.Sqrt(rr), iters, nil
}

// Sync waits for every outstanding asynchronous loop of the problem.
func (pr *Problem) Sync() error {
	for _, d := range []*op2.Dat{pr.U, pr.R, pr.P, pr.V, pr.B, pr.X, pr.Bound} {
		if err := d.Sync(); err != nil {
			return err
		}
	}
	if err := pr.RR.Sync(); err != nil {
		return err
	}
	return pr.PV.Sync()
}

// Solution returns the full solution field: the CG interior correction
// plus the Dirichlet lift.
func (pr *Problem) Solution() []float64 {
	out := make([]float64, pr.Nodes.Size())
	for nd := range out {
		out[nd] = pr.U.Data()[nd] + pr.lift[nd]
	}
	return out
}

// MaxError returns the maximum nodal deviation of the computed solution
// from the manufactured exact solution.
func (pr *Problem) MaxError() float64 {
	maxErr := 0.0
	xd := pr.X.Data()
	sol := pr.Solution()
	for nd := 0; nd < pr.Nodes.Size(); nd++ {
		e := math.Abs(sol[nd] - Exact(xd[2*nd], xd[2*nd+1]))
		if e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}
