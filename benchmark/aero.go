package main

import (
	"fmt"
	"time"

	"op2hpx/internal/aero"
	"op2hpx/op2"
)

// aeroWorkload is the matrix-free CG Poisson solver on an n×n grid. A
// block is one Solve with tol = 0, so the iteration count is exact.
func aeroWorkload(n, blockSteps, jobSteps int, why string) workload {
	nodes, cells := (n+1)*(n+1), n*n
	return workload{
		name: "aero_cg", why: why,
		mesh:       fmt.Sprintf("aero %dx%d", n, n),
		cells:      cells,
		workingSet: 8*8*nodes + 4*4*cells,
		blockSteps: blockSteps,
		jobSteps:   jobSteps,
		build: func(r role, o buildOpts) (instance, error) {
			o.tr.begin("op2.New")
			rt, err := op2.New(append(o.observe(), op2.WithBackend(r.backend()))...)
			o.tr.end()
			if err != nil {
				return nil, err
			}
			o.tr.begin("aero.NewProblem")
			pr, err := aero.NewProblem(n, rt)
			o.tr.end()
			if err != nil {
				rt.Close() //nolint:errcheck // the declaration error is the root cause
				return nil, err
			}
			// Plans are built at the first loop, so the cell order can
			// still change here; cells carry no data of their own.
			shuffleRows(o.seed, [][]int32{pr.Pcell.Data()}, []int{4})
			return &aeroInst{rt: rt, pr: pr, tr: o.tr}, nil
		},
		check: checkAero,
	}
}

type aeroInst struct {
	rt  *op2.Runtime
	pr  *aero.Problem
	tr  *tracer
	res float64
}

func (a *aeroInst) block(steps int) (bt blockTimes, err error) {
	bt.start = time.Now()
	var iters int
	a.res, iters, err = a.pr.Solve(0, steps)
	bt.synced = time.Now()
	// Solve synchronises on its reductions every iteration: issue and
	// wait cannot be told apart from outside, the whole block is issue.
	bt.issued, bt.fenced = bt.synced, bt.synced
	bt.steps = iters
	a.tr.add("aero.Solve", bt.start, bt.synced)
	if err == nil && iters != steps {
		err = fmt.Errorf("aero: solve stopped after %d of %d iterations", iters, steps)
	}
	return bt, err
}

func (a *aeroInst) state() state {
	return state{fields: [][]float64{a.pr.Solution()}, scalars: []float64{a.res, a.pr.MaxError()}}
}

func (a *aeroInst) runtime() *op2.Runtime { return a.rt }

func (a *aeroInst) close() error { return a.rt.Close() }

// checkAero is the CG oracle: residual norm and maximum error within
// 1e-9 relative of the serial solve (the increment order of the SpMV
// follows the plan's colouring, so the fields are not bitwise equal).
func checkAero(got, want state) error {
	for i, name := range []string{"residual", "max error"} {
		if !relClose(got.scalars[i], want.scalars[i], 1e-9) {
			return fmt.Errorf("aero %s %.17g differs from the serial oracle's %.17g", name, got.scalars[i], want.scalars[i])
		}
	}
	return nil
}
