package airfoil

import (
	"context"
	"fmt"
	"io"
	"math"

	"op2hpx/op2"
)

// App wires the airfoil mesh and kernels to an OP2 runtime and drives the
// time-marching loop of airfoil.cpp: per iteration one save_soln and two
// Runge-Kutta-like sub-iterations of adt_calc → res_calc → bres_calc →
// update (Fig. 2 of the paper). All loop execution goes through the
// public op2 facade.
type App struct {
	M     *Mesh
	Const Constants
	Rt    *op2.Runtime
	Rms   *op2.Global

	// UseGenericKernels switches from the specialized per-kernel bodies
	// (the code the OP2 translator generates) to the generic view-based
	// kernel path; used to cross-check the two in tests.
	UseGenericKernels bool

	// LoopAtATime disables the Step graph and issues the nine loops of
	// each iteration one at a time — the pre-Step behaviour, kept for
	// the batched-vs-unbatched comparison in cmd/experiments and the
	// message-counting tests.
	LoopAtATime bool

	loops struct {
		spec appLoops // kernels with specialized range bodies
		gen  appLoops // generic view-based kernels only
	}
}

type appLoops struct {
	saveSoln, adtCalc, resCalc, bresCalc, update *op2.Loop
	// step is the whole time iteration declared as one unit: save_soln
	// followed by two RK sub-iterations of adt→res→bres→update. Declaring
	// it up front hands the runtime the cross-loop dataflow DAG, which
	// the distributed engine uses to coalesce the q/adt halo exchanges of
	// res_calc and bres_calc into one.
	step *op2.Step
}

// NewApp builds an airfoil application instance on the given runtime.
func NewApp(nx, ny int, rt *op2.Runtime) (*App, error) {
	consts := DefaultConstants()
	m, err := NewMesh(nx, ny, consts)
	if err != nil {
		return nil, err
	}
	return NewAppFromMesh(m, consts, rt)
}

// NewAppFromMesh builds the application over an existing mesh (generated,
// loaded from file, or renumbered).
func NewAppFromMesh(m *Mesh, consts Constants, rt *op2.Runtime) (*App, error) {
	rms, err := op2.DeclGlobal(1, nil, "rms")
	if err != nil {
		return nil, err
	}
	a := &App{M: m, Const: consts, Rt: rt, Rms: rms}
	a.buildLoops()
	return a, nil
}

// buildLoops constructs the five op_par_loop descriptors once; the
// runtime caches their plans across time steps. Each loop is built twice:
// with the specialized range body attached and with the generic kernel
// only.
func (a *App) buildLoops() {
	m := a.M
	c := &a.Const
	rt := a.Rt

	build := func(body bool) appLoops {
		var ls appLoops
		attach := func(lp *op2.Loop, b op2.Binder) *op2.Loop {
			if body {
				return lp.Body(b)
			}
			return lp
		}
		ls.saveSoln = attach(rt.ParLoop("save_soln", m.Cells,
			op2.DirectArg(m.Q, op2.Read),
			op2.DirectArg(m.Qold, op2.Write),
		).Kernel(func(v [][]float64) { SaveSoln(v[0], v[1]) }), a.saveSolnBody())
		ls.adtCalc = attach(rt.ParLoop("adt_calc", m.Cells,
			op2.DatArg(m.X, 0, m.Pcell, op2.Read),
			op2.DatArg(m.X, 1, m.Pcell, op2.Read),
			op2.DatArg(m.X, 2, m.Pcell, op2.Read),
			op2.DatArg(m.X, 3, m.Pcell, op2.Read),
			op2.DirectArg(m.Q, op2.Read),
			op2.DirectArg(m.Adt, op2.Write),
		).Kernel(func(v [][]float64) { c.AdtCalc(v[0], v[1], v[2], v[3], v[4], v[5]) }), a.adtCalcBody())
		ls.resCalc = attach(rt.ParLoop("res_calc", m.Edges,
			op2.DatArg(m.X, 0, m.Pedge, op2.Read),
			op2.DatArg(m.X, 1, m.Pedge, op2.Read),
			op2.DatArg(m.Q, 0, m.Pecell, op2.Read),
			op2.DatArg(m.Q, 1, m.Pecell, op2.Read),
			op2.DatArg(m.Adt, 0, m.Pecell, op2.Read),
			op2.DatArg(m.Adt, 1, m.Pecell, op2.Read),
			op2.DatArg(m.Res, 0, m.Pecell, op2.Inc),
			op2.DatArg(m.Res, 1, m.Pecell, op2.Inc),
		).Kernel(func(v [][]float64) { c.ResCalc(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]) }), a.resCalcBody())
		ls.bresCalc = attach(rt.ParLoop("bres_calc", m.Bedges,
			op2.DatArg(m.X, 0, m.Pbedge, op2.Read),
			op2.DatArg(m.X, 1, m.Pbedge, op2.Read),
			op2.DatArg(m.Q, 0, m.Pbecell, op2.Read),
			op2.DatArg(m.Adt, 0, m.Pbecell, op2.Read),
			op2.DatArg(m.Res, 0, m.Pbecell, op2.Inc),
			op2.DirectArg(m.Bound, op2.Read),
		).Kernel(func(v [][]float64) { c.BresCalc(v[0], v[1], v[2], v[3], v[4], v[5]) }), a.bresCalcBody())
		ls.update = attach(rt.ParLoop("update", m.Cells,
			op2.DirectArg(m.Qold, op2.Read),
			op2.DirectArg(m.Q, op2.Write),
			op2.DirectArg(m.Res, op2.RW),
			op2.DirectArg(m.Adt, op2.Read),
			op2.GblArg(a.Rms, op2.Inc),
		).Kernel(func(v [][]float64) { Update(v[0], v[1], v[2], v[3], v[4]) }), a.updateBody())
		ls.step = rt.Step("airfoil_iter").Then(ls.saveSoln)
		for k := 0; k < 2; k++ {
			ls.step.Then(ls.adtCalc).Then(ls.resCalc).Then(ls.bresCalc).Then(ls.update)
		}
		return ls
	}
	a.loops.spec = build(true)
	a.loops.gen = build(false)
}

// The specialized bodies below are what the OP2-to-Go translator emits for
// each kernel (cmd/op2gen produces this shape): raw-slice indexing over a
// chunk, no per-element view construction. Each is a binder: it resolves
// its arrays through the Bind once, so the same body runs over the host
// arrays under shared memory and over rank-local arrays on every rank.

func (a *App) saveSolnBody() op2.Binder {
	m := a.M
	return func(b op2.Bind) op2.RangeBody {
		q, qold := b.Dat(m.Q), b.Dat(m.Qold)
		return func(lo, hi int, _ []float64) {
			copy(qold[lo*4:hi*4], q[lo*4:hi*4])
		}
	}
}

func (a *App) adtCalcBody() op2.Binder {
	m := a.M
	c := &a.Const
	return func(b op2.Bind) op2.RangeBody {
		x, q, adt := b.Dat(m.X), b.Dat(m.Q), b.Dat(m.Adt)
		pc := b.Map(m.Pcell)
		return func(lo, hi int, _ []float64) {
			for e := lo; e < hi; e++ {
				n1 := int(pc[4*e]) * 2
				n2 := int(pc[4*e+1]) * 2
				n3 := int(pc[4*e+2]) * 2
				n4 := int(pc[4*e+3]) * 2
				c.AdtCalc(x[n1:n1+2], x[n2:n2+2], x[n3:n3+2], x[n4:n4+2],
					q[4*e:4*e+4], adt[e:e+1])
			}
		}
	}
}

func (a *App) resCalcBody() op2.Binder {
	m := a.M
	c := &a.Const
	return func(b op2.Bind) op2.RangeBody {
		x, q, adt, res := b.Dat(m.X), b.Dat(m.Q), b.Dat(m.Adt), b.Dat(m.Res)
		pe, pc := b.Map(m.Pedge), b.Map(m.Pecell)
		return func(lo, hi int, _ []float64) {
			for e := lo; e < hi; e++ {
				n1 := int(pe[2*e]) * 2
				n2 := int(pe[2*e+1]) * 2
				c1 := int(pc[2*e])
				c2 := int(pc[2*e+1])
				c.ResCalc(x[n1:n1+2], x[n2:n2+2],
					q[4*c1:4*c1+4], q[4*c2:4*c2+4],
					adt[c1:c1+1], adt[c2:c2+1],
					res[4*c1:4*c1+4], res[4*c2:4*c2+4])
			}
		}
	}
}

func (a *App) bresCalcBody() op2.Binder {
	m := a.M
	c := &a.Const
	return func(b op2.Bind) op2.RangeBody {
		x, q, adt, res, bound := b.Dat(m.X), b.Dat(m.Q), b.Dat(m.Adt), b.Dat(m.Res), b.Dat(m.Bound)
		pbe, pbc := b.Map(m.Pbedge), b.Map(m.Pbecell)
		return func(lo, hi int, _ []float64) {
			for e := lo; e < hi; e++ {
				n1 := int(pbe[2*e]) * 2
				n2 := int(pbe[2*e+1]) * 2
				c1 := int(pbc[e])
				c.BresCalc(x[n1:n1+2], x[n2:n2+2],
					q[4*c1:4*c1+4], adt[c1:c1+1],
					res[4*c1:4*c1+4], bound[e:e+1])
			}
		}
	}
}

func (a *App) updateBody() op2.Binder {
	m := a.M
	return func(b op2.Bind) op2.RangeBody {
		qold, q, res, adt := b.Dat(m.Qold), b.Dat(m.Q), b.Dat(m.Res), b.Dat(m.Adt)
		return func(lo, hi int, scratch []float64) {
			for e := lo; e < hi; e++ {
				Update(qold[4*e:4*e+4], q[4*e:4*e+4], res[4*e:4*e+4], adt[e:e+1], scratch)
			}
		}
	}
}

// activeLoops returns the loop set of the configured kernel path.
func (a *App) activeLoops() *appLoops {
	if a.UseGenericKernels {
		return &a.loops.gen
	}
	return &a.loops.spec
}

// StepGraph exposes the declared one-iteration Step of the active kernel
// path — the unit App.Step issues — so callers (benchmarks, the hot-path
// experiment) can drive step.Async pipelines directly on any backend.
func (a *App) StepGraph() *op2.Step { return a.activeLoops().step }

// Step performs one time iteration, issued as one op2.Step graph. Under
// the Dataflow backend and on distributed runtimes the step is issued
// asynchronously and Step returns without waiting — the futures chain
// through the dats exactly as Fig. 10/11 describe, and the distributed
// engine batches halo exchanges across the step's loops. Under
// Serial/ForkJoin each loop runs to completion with its implicit
// barrier.
func (a *App) Step() error { return a.StepCtx(context.Background()) }

// StepCtx is Step with a cancellation context: a done ctx aborts loops
// mid-nest and surfaces as an error wrapping op2.ErrCanceled. The check
// here also stops the dataflow issuer promptly — without it a long run
// would keep issuing asynchronous steps long after cancellation, since
// issuing itself never blocks.
func (a *App) StepCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("airfoil: step canceled: %w: %w", op2.ErrCanceled, err)
	}
	ls := a.activeLoops()
	if a.LoopAtATime {
		return a.stepLoopAtATime(ctx, ls)
	}
	// Dataflow and the distributed engine pipeline: issue the whole step
	// asynchronously and let iterations overlap, with the final Sync as
	// the only barrier.
	if a.Rt.Backend() == op2.Dataflow || a.Rt.Distributed() {
		fut := ls.step.Async(ctx)
		// Surface issue-time validation errors without waiting for
		// completion.
		if fut.Ready() {
			if err := fut.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
	return ls.step.Run(ctx)
}

// stepLoopAtATime is the pre-Step issue pattern: one loop at a time, so
// the runtime sees the dataflow DAG only implicitly.
func (a *App) stepLoopAtATime(ctx context.Context, ls *appLoops) error {
	if a.Rt.Backend() == op2.Dataflow || a.Rt.Distributed() {
		var last *op2.Future
		ls.saveSoln.Async(ctx)
		for k := 0; k < 2; k++ {
			ls.adtCalc.Async(ctx)
			ls.resCalc.Async(ctx)
			ls.bresCalc.Async(ctx)
			last = ls.update.Async(ctx)
		}
		if last.Ready() {
			if err := last.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ls.saveSoln.Run(ctx); err != nil {
		return err
	}
	for k := 0; k < 2; k++ {
		for _, lp := range []*op2.Loop{ls.adtCalc, ls.resCalc, ls.bresCalc, ls.update} {
			if err := lp.Run(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run performs iters time iterations and returns the normalized RMS
// residual of the final sync interval: sqrt(rms / (2·ncells·iters)), the
// quantity airfoil.cpp prints. Under the Dataflow backend the only host
// synchronization is the final one.
func (a *App) Run(iters int) (float64, error) { return a.RunCtx(context.Background(), iters) }

// RunCtx is Run with a cancellation context.
func (a *App) RunCtx(ctx context.Context, iters int) (float64, error) {
	if iters < 1 {
		return 0, fmt.Errorf("airfoil: iters %d < 1", iters)
	}
	if err := a.Rms.Sync(); err != nil {
		return 0, err
	}
	if err := a.Rms.Set([]float64{0}); err != nil {
		return 0, err
	}
	for i := 0; i < iters; i++ {
		if err := a.StepCtx(ctx); err != nil {
			return 0, err
		}
	}
	if err := a.Sync(); err != nil {
		return 0, err
	}
	rms := a.Rms.Data()[0]
	return math.Sqrt(rms / float64(2*a.M.Cells.Size()*iters)), nil
}

// RunMonitored is Run with the original airfoil.cpp reporting behaviour:
// every `every` iterations the host synchronizes on the rms reduction,
// prints it, and resets the accumulator. In dataflow mode each report is a
// genuine host-side sync point (the only ones in the run), so the printed
// cadence also measures how far ahead the asynchronous issue ran.
func (a *App) RunMonitored(iters, every int, out io.Writer) (float64, error) {
	if iters < 1 {
		return 0, fmt.Errorf("airfoil: iters %d < 1", iters)
	}
	if every < 1 {
		every = iters
	}
	if err := a.Rms.Sync(); err != nil {
		return 0, err
	}
	if err := a.Rms.Set([]float64{0}); err != nil {
		return 0, err
	}
	var last float64
	since := 0
	for i := 1; i <= iters; i++ {
		if err := a.Step(); err != nil {
			return 0, err
		}
		since++
		if i%every == 0 || i == iters {
			if err := a.Rms.Sync(); err != nil {
				return 0, err
			}
			last = math.Sqrt(a.Rms.Data()[0] / float64(2*a.M.Cells.Size()*since))
			if out != nil {
				fmt.Fprintf(out, "%6d  %10.5e\n", i, last)
			}
			if err := a.Rms.Set([]float64{0}); err != nil {
				return 0, err
			}
			since = 0
		}
	}
	if err := a.Sync(); err != nil {
		return 0, err
	}
	return last, nil
}

// Sync waits for every outstanding loop on every dat of the application —
// the host-side fence at the end of a dataflow run.
func (a *App) Sync() error {
	m := a.M
	for _, d := range []*op2.Dat{m.Q, m.Qold, m.Adt, m.Res, m.X, m.Bound} {
		if err := d.Sync(); err != nil {
			return err
		}
	}
	return a.Rms.Sync()
}
