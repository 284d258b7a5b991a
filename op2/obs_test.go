// Tests of the observability facade: metrics registries and trace rings
// attach through options, export through Runtime accessors, and — the
// load-bearing property — cost nothing when left off and no allocations
// when on.
package op2_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// obsLoop builds a warm direct loop on a runtime for alloc measurements.
func obsLoop(t *testing.T, rt *op2.Runtime) *op2.Loop {
	t.Helper()
	const n = 4096
	cells := op2.MustDeclSet(n, "cells")
	x := op2.MustDeclDat(cells, 1, nil, "x")
	y := op2.MustDeclDat(cells, 1, nil, "y")
	xd, yd := x.Data(), y.Data()
	lp := rt.ParLoop("saxpy", cells,
		op2.DirectArg(x, op2.Read),
		op2.DirectArg(y, op2.RW),
	).Body(rangeOnly(func(lo, hi int, _ []float64) {
		for i := lo; i < hi; i++ {
			yd[i] += 2 * xd[i]
		}
	}))
	ctx := context.Background()
	for i := 0; i < 10; i++ { // warm plans, pools, metric handles
		if err := lp.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return lp
}

// TestObservabilityOffIsZeroAlloc is the "provably free" guard: with the
// observability layer compiled in but not enabled (the default), the
// steady-state direct loop still performs ZERO allocations per
// invocation on both the synchronous and asynchronous issue paths.
func TestObservabilityOffIsZeroAlloc(t *testing.T) {
	noGC(t)
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2))
	defer rt.Close()
	if rt.Metrics() != nil || rt.TraceRing() != nil {
		t.Fatal("observability attached without being requested")
	}
	lp := obsLoop(t, rt)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := lp.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("obs-off direct loop: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := lp.Async(ctx).Wait(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("obs-off async loop: %v allocs/op, want 0", allocs)
	}
}

// TestObservabilityOnIsZeroAlloc extends the guard to the ENABLED layer:
// histogram observation (atomic bucket increment + CAS sum) and span
// recording (fixed ring slot write) allocate nothing once the per-loop
// metric handles are cached, so metrics+tracing stay on in production
// without perturbing the steady state they measure.
func TestObservabilityOnIsZeroAlloc(t *testing.T) {
	noGC(t)
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2),
		op2.WithMetrics(), op2.WithTracing(4096))
	defer rt.Close()
	lp := obsLoop(t, rt)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := lp.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("obs-on direct loop: %v allocs/op, want 0", allocs)
	}
}

// TestRuntimeMetricsExposition runs the airfoil step pipeline on an
// instrumented shared-memory runtime and asserts the whole family shows
// up in one scrape: per-loop latency histograms, fused-group histograms
// and the step counters, plus exec/fused spans in the trace ring.
func TestRuntimeMetricsExposition(t *testing.T) {
	rt := op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(2),
		op2.WithMetrics(), op2.WithTracing(8192))
	defer rt.Close()
	app, err := airfoil.NewApp(30, 16, rt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(3); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rt.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`op2_loop_seconds_count{loop="res_calc"}`,
		`op2_loop_seconds_count{loop="bres_calc"}`,
		`op2_fused_group_seconds_count{group="fused(save_soln+adt_calc)"}`,
		"op2_steps_total 3",
		"op2_fused_groups_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	phases := map[string]bool{}
	for _, sp := range rt.TraceRing().Snapshot() {
		phases[sp.Phase] = true
	}
	for _, want := range []string{"exec", "fused"} {
		if !phases[want] {
			t.Errorf("trace ring has no %q spans (got %v)", want, phases)
		}
	}

	var buf bytes.Buffer
	if err := rt.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteTrace emitted invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("WriteTrace emitted no events")
	}
}

// TestDistributedRuntimeMetrics attaches a shared registry and ring to a
// distributed runtime: the same scrape carries halo traffic counters and
// per-rank pipeline-phase histograms, and spans land for every rank.
func TestDistributedRuntimeMetrics(t *testing.T) {
	const ranks = 3
	reg := op2.NewMetrics()
	ring := op2.NewTraceRing(16384)
	rt := op2.MustNew(op2.WithRanks(ranks),
		op2.WithMetricsRegistry(reg), op2.WithTraceRing(ring))
	defer rt.Close()
	if rt.Metrics() != reg || rt.TraceRing() != ring {
		t.Fatal("shared registry/ring not adopted by the runtime")
	}

	nodes := op2.MustDeclSet(64, "nodes")
	edges := op2.MustDeclSet(63, "edges")
	table := make([]int32, 2*63)
	for e := 0; e < 63; e++ {
		table[2*e] = int32(e)
		table[2*e+1] = int32(e + 1)
	}
	pedge := op2.MustDeclMap(edges, nodes, 2, table, "pedge")
	val := op2.MustDeclDat(nodes, 1, nil, "val")
	acc := op2.MustDeclDat(nodes, 1, nil, "acc")
	lp := rt.ParLoop("edge_acc", edges,
		op2.DatArg(val, 0, pedge, op2.Read),
		op2.DatArg(val, 1, pedge, op2.Read),
		op2.DatArg(acc, 0, pedge, op2.Inc),
	).Kernel(func(v [][]float64) {
		v[2][0] += v[0][0] + v[1][0]
	})
	for i := 0; i < 4; i++ {
		if err := lp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"op2_halo_messages_total",
		"op2_halo_buffers_requested_total",
		`op2_dist_phase_seconds_count{phase="interior"}`,
		`op2_dist_phase_seconds_count{phase="halo"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("distributed exposition missing %q", want)
		}
	}
	seenRanks := map[int32]bool{}
	for _, sp := range ring.Snapshot() {
		seenRanks[sp.Rank] = true
	}
	for r := int32(0); r < ranks; r++ {
		if !seenRanks[r] {
			t.Errorf("no spans recorded for rank %d", r)
		}
	}
}

// TestObsOptionValidation pins the facade error surface: a negative ring
// capacity fails construction, and the writers refuse runtimes built
// without the corresponding option.
func TestObsOptionValidation(t *testing.T) {
	if _, err := op2.New(op2.WithTracing(-1)); !errors.Is(err, op2.ErrValidation) {
		t.Errorf("WithTracing(-1): %v, want ErrValidation", err)
	}
	rt := op2.MustNew()
	defer rt.Close()
	var sb strings.Builder
	if err := rt.WriteMetrics(&sb); !errors.Is(err, op2.ErrValidation) {
		t.Errorf("WriteMetrics without WithMetrics: %v, want ErrValidation", err)
	}
	if err := rt.WriteTrace(&sb); !errors.Is(err, op2.ErrValidation) {
		t.Errorf("WriteTrace without WithTracing: %v, want ErrValidation", err)
	}
}
