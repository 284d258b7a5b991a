package op2_test

import (
	"fmt"
	"math"
	"testing"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// runGolden runs the airfoil workload purely through the public op2 API
// (the application wiring itself issues every loop via Runtime.ParLoop)
// and returns the bit patterns of the final residual and flow field.
func runGolden(t *testing.T, b op2.Backend, workers, chunk int) (rmsBits uint64, q []uint64) {
	t.Helper()
	return runGoldenWith(t, op2.WithBackend(b), op2.WithPoolSize(workers),
		op2.WithChunker(op2.StaticChunk(chunk)))
}

// runGoldenWith is runGolden under arbitrary runtime options.
func runGoldenWith(t *testing.T, opts ...op2.Option) (rmsBits uint64, q []uint64) {
	t.Helper()
	const nx, ny, iters = 30, 16, 4
	rt := op2.MustNew(opts...)
	defer rt.Close()
	app, err := airfoil.NewApp(nx, ny, rt)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := app.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	q = make([]uint64, len(app.M.Q.Data()))
	for i, v := range app.M.Q.Data() {
		q[i] = math.Float64bits(v)
	}
	return math.Float64bits(rms), q
}

// TestAirfoilGoldenAcrossBackends asserts that Serial, ForkJoin and
// Dataflow produce bitwise-identical residuals and flow fields when
// driven through the public facade.
//
// Bitwise equality holds because execution order is a property of the
// loop, not the backend: every loop, direct or indirect, runs its plan
// (ascending colors, ascending blocks), each block reduces into its own
// slot and the slots fold in ascending block id. Chunks are whole
// blocks, so the chunk size never reaches the results; the whole-set
// static chunk here runs each color as one chunk, and the sibling tests
// below cover multi-chunk and calibrated layouts.
func TestAirfoilGoldenAcrossBackends(t *testing.T) {
	const wholeSet = 1 << 20
	refRms, refQ := runGolden(t, op2.Serial, 1, wholeSet)
	for _, tc := range []struct {
		name    string
		backend op2.Backend
		workers int
	}{
		{"forkjoin-1", op2.ForkJoin, 1},
		{"forkjoin-4", op2.ForkJoin, 4},
		{"forkjoin-7", op2.ForkJoin, 7},
		{"dataflow-1", op2.Dataflow, 1},
		{"dataflow-4", op2.Dataflow, 4},
	} {
		rms, q := runGolden(t, tc.backend, tc.workers, wholeSet)
		checkGolden(t, tc.name, rms, q, refRms, refQ)
	}
}

// checkGolden fails unless rms and q match the serial reference bitwise.
func checkGolden(t *testing.T, name string, rms uint64, q []uint64, refRms uint64, refQ []uint64) {
	t.Helper()
	if rms != refRms {
		t.Errorf("%s: rms bits %#x != serial %#x (%.17g vs %.17g)",
			name, rms, refRms,
			math.Float64frombits(rms), math.Float64frombits(refRms))
	}
	for i := range q {
		if q[i] != refQ[i] {
			t.Fatalf("%s: q[%d] differs bitwise: %.17g vs serial %.17g",
				name, i,
				math.Float64frombits(q[i]), math.Float64frombits(refQ[i]))
		}
	}
}

// TestAirfoilGoldenCalibratedChunkers asserts that the calibrating
// chunkers, whose chunk sizes follow measured times, leave every bit of
// the serial golden intact at every pool size, and so does a two-rank
// runtime.
func TestAirfoilGoldenCalibratedChunkers(t *testing.T) {
	refRms, refQ := runGolden(t, op2.Serial, 1, 1<<20)
	chunkers := []struct {
		name string
		make func() op2.Chunker
	}{
		{"auto", op2.AutoChunk},
		{"persistent", func() op2.Chunker { return op2.PersistentAutoChunk() }},
	}
	for _, b := range []op2.Backend{op2.ForkJoin, op2.Dataflow} {
		for _, workers := range []int{1, 2, 4, 7} {
			for _, ck := range chunkers {
				rms, q := runGoldenWith(t, op2.WithBackend(b), op2.WithPoolSize(workers),
					op2.WithChunker(ck.make()))
				checkGolden(t, fmt.Sprintf("%v-%d-%s", b, workers, ck.name), rms, q, refRms, refQ)
			}
		}
	}
	rms, q := runGoldenWith(t, op2.WithRanks(2))
	checkGolden(t, "ranks-2", rms, q, refRms, refQ)
}

// TestAirfoilGoldenParallelChunked asserts that with a real multi-chunk
// layout (static chunks of one plan block) the two parallel backends
// match the serial golden bitwise at every worker count: chunks are
// whole blocks and reductions fold per block, so scheduling is
// invisible in the results.
func TestAirfoilGoldenParallelChunked(t *testing.T) {
	refRms, refQ := runGolden(t, op2.Serial, 1, 1<<20)
	for _, tc := range []struct {
		name    string
		backend op2.Backend
		workers int
	}{
		{"forkjoin-1", op2.ForkJoin, 1},
		{"forkjoin-4", op2.ForkJoin, 4},
		{"forkjoin-8", op2.ForkJoin, 8},
		{"dataflow-1", op2.Dataflow, 1},
		{"dataflow-4", op2.Dataflow, 4},
	} {
		rms, q := runGolden(t, tc.backend, tc.workers, 1)
		checkGolden(t, tc.name, rms, q, refRms, refQ)
	}
}
