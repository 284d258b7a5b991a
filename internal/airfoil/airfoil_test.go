package airfoil

import (
	"math"
	"testing"
	"testing/quick"

	"op2hpx/op2"
)

func testRuntime(t *testing.T, b op2.Backend, workers int, opts ...op2.Option) *op2.Runtime {
	t.Helper()
	rt := op2.MustNew(append([]op2.Option{op2.WithBackend(b), op2.WithPoolSize(workers)}, opts...)...)
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestMeshTopology(t *testing.T) {
	consts := DefaultConstants()
	nx, ny := 8, 5
	m, err := NewMesh(nx, ny, consts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Nodes.Size(), (nx+1)*(ny+1); got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	if got, want := m.Cells.Size(), nx*ny; got != want {
		t.Fatalf("cells = %d, want %d", got, want)
	}
	if got, want := m.Edges.Size(), (nx-1)*ny+nx*(ny-1); got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	if got, want := m.Bedges.Size(), 2*nx+2*ny; got != want {
		t.Fatalf("bedges = %d, want %d", got, want)
	}
}

func TestMeshEulerFormula(t *testing.T) {
	// For a planar quad mesh: V - E + F = 1 (faces excluding the outer
	// one), with E = interior + boundary edges.
	for _, dims := range [][2]int{{2, 2}, {5, 3}, {16, 9}, {31, 17}} {
		m, err := NewMesh(dims[0], dims[1], DefaultConstants())
		if err != nil {
			t.Fatal(err)
		}
		v := m.Nodes.Size()
		e := m.Edges.Size() + m.Bedges.Size()
		f := m.Cells.Size()
		if v-e+f != 1 {
			t.Fatalf("%dx%d: V-E+F = %d-%d+%d = %d, want 1", dims[0], dims[1], v, e, f, v-e+f)
		}
	}
}

func TestMeshEdgeCellConsistency(t *testing.T) {
	// Every interior edge's two nodes must be shared corners of both its
	// adjacent cells.
	m, err := NewMesh(12, 7, DefaultConstants())
	if err != nil {
		t.Fatal(err)
	}
	cellNodes := func(c int) map[int]bool {
		s := map[int]bool{}
		for k := 0; k < 4; k++ {
			s[m.Pcell.At(c, k)] = true
		}
		return s
	}
	for e := 0; e < m.Edges.Size(); e++ {
		n1, n2 := m.Pedge.At(e, 0), m.Pedge.At(e, 1)
		c1, c2 := m.Pecell.At(e, 0), m.Pecell.At(e, 1)
		if c1 == c2 {
			t.Fatalf("edge %d connects cell %d to itself", e, c1)
		}
		for _, c := range []int{c1, c2} {
			ns := cellNodes(c)
			if !ns[n1] || !ns[n2] {
				t.Fatalf("edge %d nodes (%d,%d) not corners of adjacent cell %d", e, n1, n2, c)
			}
		}
	}
	// Every boundary edge's nodes belong to its single cell.
	for e := 0; e < m.Bedges.Size(); e++ {
		n1, n2 := m.Pbedge.At(e, 0), m.Pbedge.At(e, 1)
		ns := cellNodes(m.Pbecell.At(e, 0))
		if !ns[n1] || !ns[n2] {
			t.Fatalf("bedge %d nodes not corners of its cell", e)
		}
	}
}

func TestMeshEdgeCountPerCell(t *testing.T) {
	// Interior quad mesh: every cell is touched by exactly 4 edges
	// (interior + boundary combined).
	m, err := NewMesh(9, 6, DefaultConstants())
	if err != nil {
		t.Fatal(err)
	}
	touch := make([]int, m.Cells.Size())
	for e := 0; e < m.Edges.Size(); e++ {
		touch[m.Pecell.At(e, 0)]++
		touch[m.Pecell.At(e, 1)]++
	}
	for e := 0; e < m.Bedges.Size(); e++ {
		touch[m.Pbecell.At(e, 0)]++
	}
	for c, n := range touch {
		if n != 4 {
			t.Fatalf("cell %d touched by %d edges, want 4", c, n)
		}
	}
}

func TestMeshBoundFlags(t *testing.T) {
	m, err := NewMesh(10, 4, DefaultConstants())
	if err != nil {
		t.Fatal(err)
	}
	walls, far := 0, 0
	for e := 0; e < m.Bedges.Size(); e++ {
		switch m.Bound.Data()[e] {
		case BoundWall:
			walls++
		case BoundFarfield:
			far++
		default:
			t.Fatalf("bedge %d has invalid bound %v", e, m.Bound.Data()[e])
		}
	}
	if walls != 10 {
		t.Fatalf("wall edges = %d, want nx = 10", walls)
	}
	if far != 10+2*4 {
		t.Fatalf("farfield edges = %d, want %d", far, 10+8)
	}
}

func TestMeshRejectsTinyGrids(t *testing.T) {
	if _, err := NewMesh(1, 5, DefaultConstants()); err == nil {
		t.Fatal("nx=1 accepted")
	}
	if _, err := NewMesh(5, 0, DefaultConstants()); err == nil {
		t.Fatal("ny=0 accepted")
	}
}

func TestDefaultConstants(t *testing.T) {
	c := DefaultConstants()
	if c.Gm1 != c.Gam-1 {
		t.Fatal("gm1 inconsistent")
	}
	// qinf must be a consistent free-stream state: positive density and
	// pressure, Mach 0.4 velocity.
	r, ru, rv, re := c.Qinf[0], c.Qinf[1], c.Qinf[2], c.Qinf[3]
	if r <= 0 || rv != 0 {
		t.Fatalf("qinf = %v", c.Qinf)
	}
	u := ru / r
	p := c.Gm1 * (re - 0.5*(ru*ru+rv*rv)/r)
	mach := u / math.Sqrt(c.Gam*p/r)
	if math.Abs(mach-c.Mach) > 1e-12 {
		t.Fatalf("free stream Mach = %g, want %g", mach, c.Mach)
	}
}

func TestSizeForNodes(t *testing.T) {
	for _, want := range []int{9, 1000, 720_000} {
		nx, ny := SizeForNodes(want)
		if (nx+1)*(ny+1) < want {
			t.Fatalf("SizeForNodes(%d) = %d×%d gives only %d nodes", want, nx, ny, (nx+1)*(ny+1))
		}
	}
	nx, ny := SizeForNodes(720_000)
	nodes := (nx + 1) * (ny + 1)
	if nodes > 900_000 {
		t.Fatalf("SizeForNodes(720000) overshoots: %d nodes", nodes)
	}
}

func TestKernelUpdateZeroResidualIsFixpoint(t *testing.T) {
	qold := []float64{1, 2, 3, 4}
	q := []float64{9, 9, 9, 9}
	res := []float64{0, 0, 0, 0}
	adt := []float64{0.5}
	rms := []float64{0}
	Update(qold, q, res, adt, rms)
	for n := 0; n < 4; n++ {
		if q[n] != qold[n] {
			t.Fatalf("q[%d] = %g, want qold %g", n, q[n], qold[n])
		}
	}
	if rms[0] != 0 {
		t.Fatalf("rms = %g for zero residual", rms[0])
	}
}

func TestKernelResCalcAntisymmetric(t *testing.T) {
	// Conservation: whatever leaves cell 1 enters cell 2.
	c := DefaultConstants()
	x1 := []float64{0, 0}
	x2 := []float64{0, 0.25}
	q1 := []float64{1, 0.4, 0.02, 2.5}
	q2 := []float64{1.1, 0.3, -0.05, 2.6}
	adt1 := []float64{0.3}
	adt2 := []float64{0.4}
	res1 := make([]float64, 4)
	res2 := make([]float64, 4)
	c.ResCalc(x1, x2, q1, q2, adt1, adt2, res1, res2)
	for n := 0; n < 4; n++ {
		if diff := math.Abs(res1[n] + res2[n]); diff > 1e-15 {
			t.Fatalf("component %d not conservative: %g vs %g", n, res1[n], res2[n])
		}
	}
}

func TestKernelResCalcUniformFreeStreamViscousFree(t *testing.T) {
	// With q1 == q2 the artificial viscosity term must vanish (mu scales
	// q1-q2), leaving a pure flux.
	c := DefaultConstants()
	q := c.Qinf[:]
	res1 := make([]float64, 4)
	res2 := make([]float64, 4)
	c.ResCalc([]float64{0, 0}, []float64{0, 1}, q, q, []float64{1}, []float64{2}, res1, res2)
	// Mass flux through a unit vertical edge of uniform horizontal flow
	// is exactly the momentum density.
	if math.Abs(res1[0]-(-q[1])) > 1e-12 && math.Abs(res1[0]-q[1]) > 1e-12 {
		t.Fatalf("mass flux %g, want ±%g", res1[0], q[1])
	}
}

func TestKernelBresCalcWallOnlyPressure(t *testing.T) {
	c := DefaultConstants()
	q1 := []float64{1, 0.4, 0, 2.2}
	res1 := make([]float64, 4)
	c.BresCalc([]float64{0, 0}, []float64{0.5, 0}, q1, []float64{1}, res1, []float64{BoundWall})
	if res1[0] != 0 || res1[3] != 0 {
		t.Fatalf("wall flux has mass/energy components: %v", res1)
	}
	if res1[1] == 0 && res1[2] == 0 {
		t.Fatal("wall flux has no pressure component")
	}
}

func TestKernelAdtCalcPositive(t *testing.T) {
	c := DefaultConstants()
	adt := []float64{0}
	c.AdtCalc([]float64{0, 0}, []float64{1, 0}, []float64{1, 1}, []float64{0, 1},
		c.Qinf[:], adt)
	if adt[0] <= 0 || math.IsNaN(adt[0]) {
		t.Fatalf("adt = %g", adt[0])
	}
}

func TestAppSerialRunProducesFiniteRms(t *testing.T) {
	rt := testRuntime(t, op2.Serial, 1)
	app, err := NewApp(24, 12, rt)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := app.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rms) || math.IsInf(rms, 0) || rms <= 0 {
		t.Fatalf("rms = %g", rms)
	}
	for i, v := range app.M.Q.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("q[%d] = %g after 5 iterations", i, v)
		}
	}
}

func TestAppBackendsAgree(t *testing.T) {
	const nx, ny, iters = 30, 16, 4
	run := func(b op2.Backend, workers int, generic bool) (*App, float64) {
		t.Helper()
		rt := testRuntime(t, b, workers)
		app, err := NewApp(nx, ny, rt)
		if err != nil {
			t.Fatal(err)
		}
		app.UseGenericKernels = generic
		rms, err := app.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		return app, rms
	}
	ref, rmsRef := run(op2.Serial, 1, false)
	for _, tc := range []struct {
		name    string
		backend op2.Backend
		workers int
		generic bool
	}{
		{"serial-generic", op2.Serial, 1, true},
		{"forkjoin-2", op2.ForkJoin, 2, false},
		{"forkjoin-8", op2.ForkJoin, 8, false},
		{"forkjoin-generic", op2.ForkJoin, 4, true},
		{"dataflow-4", op2.Dataflow, 4, false},
		{"dataflow-generic", op2.Dataflow, 4, true},
	} {
		app, rms := run(tc.backend, tc.workers, tc.generic)
		// rms is bitwise: every backend folds update's reduction per plan
		// block, whatever the chunker.
		if math.Float64bits(rms) != math.Float64bits(rmsRef) {
			t.Fatalf("%s: rms %.17g vs serial %.17g (not bitwise)", tc.name, rms, rmsRef)
		}
		// q is bitwise: every backend applies res_calc's increments in
		// the plan's colour order, and q never reads the rms reduction.
		qa := app.M.Q.Data()
		qb := ref.M.Q.Data()
		for i := range qa {
			if math.Float64bits(qa[i]) != math.Float64bits(qb[i]) {
				t.Fatalf("%s: q[%d] = %.17g vs serial %.17g (not bitwise)", tc.name, i, qa[i], qb[i])
			}
		}
	}
}

func TestAppParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	// Colored plans order conflicting updates by color, so the fork-join
	// result must be bit-identical for any worker count when chunking is
	// deterministic (static chunker).
	const nx, ny, iters = 20, 12, 3
	var ref []float64
	for _, workers := range []int{1, 3, 8} {
		rt := op2.MustNew(op2.WithBackend(op2.ForkJoin), op2.WithPoolSize(workers))
		app, err := NewApp(nx, ny, rt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(iters); err != nil {
			t.Fatal(err)
		}
		rt.Close()
		if ref == nil {
			ref = append([]float64(nil), app.M.Q.Data()...)
			continue
		}
		for i, v := range app.M.Q.Data() {
			if v != ref[i] {
				t.Fatalf("workers=%d: q[%d] differs bitwise: %g vs %g", workers, i, v, ref[i])
			}
		}
	}
}

func TestAppPrefetchingDoesNotChangeResults(t *testing.T) {
	const nx, ny, iters = 24, 12, 3
	run := func(dist int) []float64 {
		t.Helper()
		rt := op2.MustNew(op2.WithBackend(op2.ForkJoin), op2.WithPoolSize(4), op2.WithPrefetchDistance(dist))
		defer rt.Close()
		app, err := NewApp(nx, ny, rt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(iters); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), app.M.Q.Data()...)
	}
	base := run(0)
	pref := run(15)
	for i := range base {
		if base[i] != pref[i] {
			t.Fatalf("prefetching changed q[%d]", i)
		}
	}
}

func TestAppRejectsZeroIters(t *testing.T) {
	rt := testRuntime(t, op2.Serial, 1)
	app, err := NewApp(4, 4, rt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(0); err == nil {
		t.Fatal("Run(0) accepted")
	}
}

func TestMeshPropertyTopologyInvariants(t *testing.T) {
	f := func(nxr, nyr uint8) bool {
		nx := int(nxr)%30 + 2
		ny := int(nyr)%30 + 2
		m, err := NewMesh(nx, ny, DefaultConstants())
		if err != nil {
			return false
		}
		// Euler formula and edge/cell incidence counts.
		if m.Nodes.Size()-(m.Edges.Size()+m.Bedges.Size())+m.Cells.Size() != 1 {
			return false
		}
		touch := make([]int, m.Cells.Size())
		for e := 0; e < m.Edges.Size(); e++ {
			touch[m.Pecell.At(e, 0)]++
			touch[m.Pecell.At(e, 1)]++
		}
		for e := 0; e < m.Bedges.Size(); e++ {
			touch[m.Pbecell.At(e, 0)]++
		}
		for _, n := range touch {
			if n != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d
	}
	return d / scale
}
