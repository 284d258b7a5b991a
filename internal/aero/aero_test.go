package aero

import (
	"math"
	"math/rand"
	"testing"

	"op2hpx/internal/core"
	"op2hpx/op2"
)

func testRuntime(t *testing.T, b op2.Backend, workers int, opts ...op2.Option) *op2.Runtime {
	t.Helper()
	rt := op2.MustNew(append([]op2.Option{op2.WithBackend(b), op2.WithPoolSize(workers)}, opts...)...)
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestProblemSetup(t *testing.T) {
	pr, err := NewProblem(8, testRuntime(t, op2.Serial, 1))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Nodes.Size() != 81 || pr.Cells.Size() != 64 {
		t.Fatalf("sets: %d nodes, %d cells", pr.Nodes.Size(), pr.Cells.Size())
	}
	if pr.Bnodes.Size() != 4*8 {
		t.Fatalf("bnodes = %d, want 32", pr.Bnodes.Size())
	}
	if _, err := NewProblem(1, testRuntime(t, op2.Serial, 1)); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestElementStiffnessProperties(t *testing.T) {
	// Rows of the Laplace element matrix sum to zero (constants are in
	// the kernel's null space) and the matrix is symmetric.
	for a := 0; a < 4; a++ {
		sum := 0.0
		for b := 0; b < 4; b++ {
			sum += ke[a][b]
			if ke[a][b] != ke[b][a] {
				t.Fatalf("ke not symmetric at (%d, %d)", a, b)
			}
		}
		if math.Abs(sum) > 1e-15 {
			t.Fatalf("row %d sums to %g", a, sum)
		}
	}
}

func TestSolveConvergesToManufacturedSolution(t *testing.T) {
	// For uexact = x²+y² on a uniform grid, bilinear FEM with this load
	// is nodally exact, so a converged CG solve must reproduce the
	// exact solution at every node to solver precision — a sharp
	// end-to-end check of the assembly, the SpMV loop, the reductions
	// and the boundary treatment at once.
	for _, n := range []int{8, 16, 32} {
		pr, err := NewProblem(n, testRuntime(t, op2.Serial, 1))
		if err != nil {
			t.Fatal(err)
		}
		res, iters, err := pr.Solve(1e-12, 10*n*n)
		if err != nil {
			t.Fatal(err)
		}
		if res > 1e-10 {
			t.Fatalf("n=%d: CG did not converge: residual %g after %d iters", n, res, iters)
		}
		e := pr.MaxError()
		t.Logf("n=%d: %d CG iters, max nodal error %.3e", n, iters, e)
		if e > 1e-9 {
			t.Fatalf("n=%d: nodal error %g, want solver precision", n, e)
		}
	}
}

func TestSolveBackendsAgree(t *testing.T) {
	const n = 16
	solve := func(b op2.Backend, workers int, opts ...op2.Option) ([]float64, int) {
		t.Helper()
		pr, err := NewProblem(n, testRuntime(t, b, workers, opts...))
		if err != nil {
			t.Fatal(err)
		}
		_, iters, err := pr.Solve(1e-11, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return pr.Solution(), iters
	}
	backends := []struct {
		name    string
		backend op2.Backend
		workers int
	}{
		{"forkjoin", op2.ForkJoin, 4},
		{"dataflow", op2.Dataflow, 4},
	}
	// Reductions fold per plan block on every backend, so the default
	// (calibrating) chunkers and one whole-set static chunk alike give
	// the serial solution's bits in the same number of iterations.
	whole := op2.WithChunker(op2.StaticChunk((n + 1) * (n + 1)))
	for _, chunk := range []struct {
		name string
		opts []op2.Option
	}{
		{"default chunker", nil},
		{"whole-set chunk", []op2.Option{whole}},
	} {
		ref, refIters := solve(op2.Serial, 1, chunk.opts...)
		for _, tc := range backends {
			got, iters := solve(tc.backend, tc.workers, chunk.opts...)
			if iters != refIters {
				t.Fatalf("%s, %s: %d iterations vs serial %d", tc.name, chunk.name, iters, refIters)
			}
			sameBits(t, tc.name+" solution, "+chunk.name, got, ref)
		}
	}
}

// sameBits fails unless got and want are bitwise equal.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %.17g, want %.17g (not bitwise)", what, i, got[i], want[i])
		}
	}
}

// shuffleCells permutes the Pcell rows inside every plan block by a
// seeded random order. Block membership, and with it the plan's
// colouring, is unchanged; only the order of cells inside a block and
// the corner indices they touch move. Cells carry no data, so this is
// valid until the first loop builds a plan.
func shuffleCells(pr *Problem, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pc := pr.Pcell.Data()
	n := pr.Cells.Size()
	for lo := 0; lo < n; lo += core.DefaultBlockSize {
		rng.Shuffle(min(core.DefaultBlockSize, n-lo), func(i, j int) {
			a, b := (*[4]int32)(pc[4*(lo+i):]), (*[4]int32)(pc[4*(lo+j):])
			*a, *b = *b, *a
		})
	}
}

// TestBodiesMatchKernels pins the inline range bodies of the six CG
// loops to their Kernel closures bit for bit: one shuffled problem is
// solved on the body path and on the generic view-kernel path, and U, R,
// P, V, the residual and the iteration count must agree exactly. Each
// backend runs under one whole-set static chunk and under 97-element
// chunks, so reductions folded from many chunk partials are covered.
func TestBodiesMatchKernels(t *testing.T) {
	const n, seed = 40, 7
	if cells := n * n; cells <= core.DefaultBlockSize {
		t.Fatalf("%d cells fill one plan block; the shuffle needs several", cells)
	}
	type result struct {
		u, r, p, v []float64
		res        float64
		iters      int
	}
	run := func(b op2.Backend, workers, chunk int, generic bool) result {
		t.Helper()
		rt := testRuntime(t, b, workers, op2.WithChunker(op2.StaticChunk(chunk)))
		pr, err := newProblem(n, rt, generic)
		if err != nil {
			t.Fatal(err)
		}
		shuffleCells(pr, seed)
		const maxIter = 1000
		res, iters, err := pr.Solve(1e-10, maxIter)
		if err != nil {
			t.Fatal(err)
		}
		if iters == maxIter {
			t.Fatalf("CG did not converge in %d iterations (residual %g)", maxIter, res)
		}
		return result{pr.U.Data(), pr.R.Data(), pr.P.Data(), pr.V.Data(), res, iters}
	}

	for _, ck := range []struct {
		name string
		size int
	}{
		{"whole", (n + 1) * (n + 1)},
		{"chunk97", 97},
	} {
		for _, tc := range []struct {
			name    string
			backend op2.Backend
			workers int
		}{
			{"serial", op2.Serial, 1},
			{"forkjoin-2", op2.ForkJoin, 2},
			{"dataflow-2", op2.Dataflow, 2},
			{"dataflow-4", op2.Dataflow, 4},
		} {
			t.Run(ck.name+"/"+tc.name, func(t *testing.T) {
				want := run(tc.backend, tc.workers, ck.size, true)
				got := run(tc.backend, tc.workers, ck.size, false)
				if got.iters != want.iters {
					t.Fatalf("bodies take %d iterations, kernels %d", got.iters, want.iters)
				}
				sameBits(t, "residual", []float64{got.res}, []float64{want.res})
				sameBits(t, "u", got.u, want.u)
				sameBits(t, "r", got.r, want.r)
				sameBits(t, "p", got.p, want.p)
				sameBits(t, "v", got.v, want.v)
			})
		}
	}
}

// TestRepeatedSolveCheckpoints solves one problem twice: the step
// scalars and their loops are declared once per problem, so a second
// Solve adds no globals to the runtime's checkpoint list (two globals of
// one name fail Checkpoint) and, starting again from u = 0, reproduces
// the first solve bit for bit.
func TestRepeatedSolveCheckpoints(t *testing.T) {
	const n = 12
	rt := testRuntime(t, op2.Dataflow, 2, op2.WithChunker(op2.StaticChunk((n+1)*(n+1))))
	pr, err := NewProblem(n, rt)
	if err != nil {
		t.Fatal(err)
	}
	solve := func() ([]float64, float64, int) {
		t.Helper()
		res, iters, err := pr.Solve(1e-10, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return pr.Solution(), res, iters
	}
	first, res1, iters1 := solve()
	second, res2, iters2 := solve()
	if iters2 != iters1 {
		t.Fatalf("second solve took %d iterations, first %d", iters2, iters1)
	}
	sameBits(t, "residual", []float64{res2}, []float64{res1})
	sameBits(t, "second solution", second, first)
	if _, err := rt.Checkpoint(0); err != nil {
		t.Fatalf("checkpoint after two solves: %v", err)
	}
}

func TestBoundarySubspaceInvariant(t *testing.T) {
	// Every CG vector must stay zero on boundary nodes; the computed
	// solution there comes purely from the lift.
	pr, err := NewProblem(12, testRuntime(t, op2.ForkJoin, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.Solve(1e-10, 2000); err != nil {
		t.Fatal(err)
	}
	bound := pr.Bound.Data()
	for nd := 0; nd < pr.Nodes.Size(); nd++ {
		if bound[nd] == 1 {
			if pr.U.Data()[nd] != 0 || pr.P.Data()[nd] != 0 || pr.R.Data()[nd] != 0 {
				t.Fatalf("CG leaked onto boundary node %d: u=%g p=%g r=%g",
					nd, pr.U.Data()[nd], pr.P.Data()[nd], pr.R.Data()[nd])
			}
			x, y := pr.X.Data()[2*nd], pr.X.Data()[2*nd+1]
			if pr.Solution()[nd] != Exact(x, y) {
				t.Fatalf("boundary node %d solution %g, want exact %g", nd, pr.Solution()[nd], Exact(x, y))
			}
		}
	}
}
