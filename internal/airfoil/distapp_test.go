package airfoil

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"op2hpx/internal/part"
	"op2hpx/op2"
)

// serialGolden runs the airfoil workload on the shared-memory serial
// backend and returns the bit patterns of the final rms and flow field.
func serialGolden(t *testing.T, nx, ny, iters int) (uint64, []uint64) {
	t.Helper()
	rt := op2.MustNew(op2.WithBackend(op2.Serial), op2.WithPoolSize(1))
	defer rt.Close()
	ref, err := NewApp(nx, ny, rt)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := ref.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]uint64, len(ref.M.Q.Data()))
	for i, v := range ref.M.Q.Data() {
		q[i] = math.Float64bits(v)
	}
	return math.Float64bits(rms), q
}

// checkBitwise runs the distributed app on the given kernel path and
// asserts rms and the full flow field match the golden bit-for-bit.
func checkBitwise(t *testing.T, nx, ny, iters, ranks int, p op2.Partitioner, generic bool, rmsRef uint64, qRef []uint64) {
	t.Helper()
	app, err := NewDistAppPartitioned(nx, ny, ranks, p)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	app.UseGenericKernels = generic
	rms, err := app.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(rms); got != rmsRef {
		t.Errorf("rms bits %#x != serial %#x (%.17g vs %.17g)",
			got, rmsRef, rms, math.Float64frombits(rmsRef))
	}
	for i, v := range app.Q() {
		if got := math.Float64bits(v); got != qRef[i] {
			t.Fatalf("q[%d] differs bitwise: %.17g vs serial %.17g",
				i, v, math.Float64frombits(qRef[i]))
		}
	}
}

// randomPartitioner assigns every element to a uniformly random rank
// from a fixed seed: nearly every edge is cut and consecutive elements
// of each plan block interleave across ranks, the worst case for the
// exec halo and for the ordering proof that lets increment loops run
// part of their elements before the halo gate.
type randomPartitioner struct{ seed uint64 }

func (p randomPartitioner) Name() string { return "random" }

func (p randomPartitioner) Partition(ranks int, topo *part.Topology) ([]int32, error) {
	rng := rand.New(rand.NewPCG(p.seed, 0x9e3779b97f4a7c15))
	owner := make([]int32, topo.N)
	for e := range owner {
		owner[e] = int32(rng.IntN(ranks))
	}
	return owner, nil
}

// TestDistAppBitwiseGolden asserts the distributed airfoil — issued as
// one op2.Step per iteration, each rank running the loop bodies over its
// local arrays with res_calc/bres_calc's halo exchanges coalesced —
// reproduces the serial backend bit-for-bit at ranks 1, 2, 4 and 7,
// under block, RCB, greedy and a seeded random partition, on both
// kernel paths (the specialized bodies, and the generic kernels under
// "generic/"): in-place increments (exec halo included) and reduction
// folds follow the serial plan order regardless of how the mesh is
// split or how the step batches its communication.
func TestDistAppBitwiseGolden(t *testing.T) {
	const nx, ny, iters = 26, 14, 4
	rmsRef, qRef := serialGolden(t, nx, ny, iters)
	for _, tc := range []struct {
		name string
		p    op2.Partitioner
	}{
		{"block", nil},
		{"rcb", op2.RCBPartitioner()},
		{"greedy", op2.GreedyPartitioner()},
		{"random", randomPartitioner{seed: 27}},
	} {
		for _, generic := range []bool{false, true} {
			path := ""
			if generic {
				path = "generic/"
			}
			for _, ranks := range []int{1, 2, 4, 7} {
				t.Run(tc.name+"/"+path+"ranks="+strconv.Itoa(ranks), func(t *testing.T) {
					checkBitwise(t, nx, ny, iters, ranks, tc.p, generic, rmsRef, qRef)
				})
			}
		}
	}
}

// TestDistAppEmptyPartitions runs more ranks than the tiny mesh has
// cells, so several ranks own nothing — and the result must still be
// bitwise-identical to serial.
func TestDistAppEmptyPartitions(t *testing.T) {
	const nx, ny, iters = 3, 2, 3 // 6 cells across 7 ranks: at least one empty
	rmsRef, qRef := serialGolden(t, nx, ny, iters)
	checkBitwise(t, nx, ny, iters, 7, nil, false, rmsRef, qRef)
}

// TestDistAppReport asserts the partition report covers the prime set
// with a real partition and the derived sets, with every element owned.
func TestDistAppReport(t *testing.T) {
	app, err := NewDistAppPartitioned(12, 8, 3, op2.GreedyPartitioner())
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.Run(2); err != nil {
		t.Fatal(err)
	}
	stats := app.Report()
	bySet := map[string]op2.PartitionStats{}
	for _, st := range stats {
		bySet[st.Set] = st
	}
	cells, ok := bySet["cells"]
	if !ok {
		t.Fatalf("no stats for cells: %+v", stats)
	}
	if cells.Derived || cells.Method != "greedy" {
		t.Errorf("cells partition: got method %q derived=%v", cells.Method, cells.Derived)
	}
	if cells.EdgeCut < 0 {
		t.Errorf("cells edge-cut unknown despite registered adjacency")
	}
	total := 0
	for _, n := range cells.Owned {
		total += n
	}
	if total != 12*8 {
		t.Errorf("owned cells sum to %d, want %d", total, 12*8)
	}
	for _, set := range []string{"edges", "bedges"} {
		st, ok := bySet[set]
		if !ok {
			t.Fatalf("no stats for %s", set)
		}
		if !st.Derived {
			t.Errorf("%s should be derived, got method %q", set, st.Method)
		}
	}
	// res_calc reads q/adt through pecell, so ranks must have imported
	// halo cells.
	halo := 0
	for _, n := range cells.Halo {
		halo += n
	}
	if halo == 0 {
		t.Error("no import halo on cells despite boundary edges")
	}
}

// TestDistAppStepMessages is the app-level message accounting of the
// Step API: the airfoil timestep issued as one Step never posts more
// halo messages per iteration than loop-at-a-time issue, at every rank
// count and under every partitioner — while both stay bitwise-identical
// to the serial golden.
//
// For the stock airfoil the steady-state counts are EQUAL, and that is
// itself a finding worth pinning: under owner-compute ownership
// derivation, adt_calc reads q directly (owner-local), bres_calc's
// bedges follow their one cell (fully local), and update/adt_calc
// rewrite q/adt inside every RK sub-iteration — so each sub-iteration
// has exactly one read exchange (q+adt coalesced per pair by the
// per-loop schedule) and no increment exchange (res_calc's exec halo
// applies every increment in place), which is already minimal. The
// strictly-fewer coalescing win appears whenever several loops read the
// same version of a dat's halo (gradient → limiter → flux pipelines;
// asserted with a counting transport by TestStepCoalescesSharedHalo and
// TestStepPipelineFewerMessages in internal/dist); the airfoil step's
// distributed win is one submission and one completion fence per
// timestep instead of nine.
func TestDistAppStepMessages(t *testing.T) {
	const nx, ny, iters = 26, 14, 3
	rmsRef, qRef := serialGolden(t, nx, ny, iters)

	countMessages := func(p op2.Partitioner, ranks int, loopAtATime bool) int64 {
		t.Helper()
		app, err := NewDistAppPartitioned(nx, ny, ranks, p)
		if err != nil {
			t.Fatal(err)
		}
		defer app.Close()
		app.LoopAtATime = loopAtATime
		// First run doubles as verification against the serial golden
		// (fresh state) and as warm-up: plans, shards and halos are
		// built here.
		rms, err := app.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(rms); got != rmsRef {
			t.Errorf("loopAtATime=%v ranks=%d: rms bits %#x != serial %#x", loopAtATime, ranks, got, rmsRef)
		}
		for i, v := range app.Q() {
			if math.Float64bits(v) != qRef[i] {
				t.Fatalf("loopAtATime=%v ranks=%d: q[%d] differs bitwise from serial", loopAtATime, ranks, i)
			}
		}
		// Steady-state message count over a second run.
		before := app.Rt.HaloMessagesSent()
		if _, err := app.Run(iters); err != nil {
			t.Fatal(err)
		}
		return app.Rt.HaloMessagesSent() - before
	}

	for _, tc := range []struct {
		name string
		p    op2.Partitioner
	}{
		{"block", nil},
		{"rcb", op2.RCBPartitioner()},
		{"greedy", op2.GreedyPartitioner()},
	} {
		for _, ranks := range []int{2, 4, 7} {
			t.Run(tc.name+"/ranks="+strconv.Itoa(ranks), func(t *testing.T) {
				unbatched := countMessages(tc.p, ranks, true)
				batched := countMessages(tc.p, ranks, false)
				if unbatched == 0 {
					t.Fatal("loop-at-a-time run sent no halo messages; fixture broken")
				}
				if batched > unbatched {
					t.Errorf("Step sent %d messages over %d iterations, loop-at-a-time sent %d: batching must never cost messages",
						batched, iters, unbatched)
				}
			})
		}
	}
}

// TestDistAppLoopAtATimeBitwise keeps the pre-Step issue path golden at
// a couple of configurations: the Step migration must not regress it.
func TestDistAppLoopAtATimeBitwise(t *testing.T) {
	const nx, ny, iters = 20, 10, 3
	rmsRef, qRef := serialGolden(t, nx, ny, iters)
	app, err := NewDistAppPartitioned(nx, ny, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	app.LoopAtATime = true
	rms, err := app.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(rms); got != rmsRef {
		t.Errorf("rms bits %#x != serial %#x", got, rmsRef)
	}
	for i, v := range app.Q() {
		if math.Float64bits(v) != qRef[i] {
			t.Fatalf("q[%d] differs bitwise", i)
		}
	}
}

// TestDistAppRejectsZeroIters keeps the Run argument validation.
func TestDistAppRejectsZeroIters(t *testing.T) {
	app, err := NewDistApp(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if _, err := app.Run(0); err == nil {
		t.Fatal("Run(0) accepted")
	}
}
