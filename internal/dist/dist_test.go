package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
	"op2hpx/internal/hpx"
	"op2hpx/internal/part"
)

// ring is a tiny hand-built mesh: n cells in a ring, n edges, each edge
// i connecting cells i and (i+1) mod n, with a dim-1 field x and a dim-1
// residual res on the cells.
type ring struct {
	cells, edges *core.Set
	pecell       *core.Map
	x, res       *core.Dat
	flux         *core.Loop // res[c1] += x1-x2; res[c2] -= x1-x2 (indirect)
	scale        *core.Loop // x *= 1.5 + c (direct, writes x)
	total        *core.Loop // sum += x (direct, global Inc reduction)
	sum          *core.Global
}

func newRing(t *testing.T, n int) *ring {
	t.Helper()
	r := &ring{}
	var err error
	if r.cells, err = core.DeclSet(n, "cells"); err != nil {
		t.Fatal(err)
	}
	if r.edges, err = core.DeclSet(n, "edges"); err != nil {
		t.Fatal(err)
	}
	idx := make([]int32, 2*n)
	for e := 0; e < n; e++ {
		idx[2*e] = int32(e)
		idx[2*e+1] = int32((e + 1) % n)
	}
	if r.pecell, err = core.DeclMap(r.edges, r.cells, 2, idx, "pecell"); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(float64(i)*0.7) + 2
	}
	if r.x, err = core.DeclDat(r.cells, 1, xs, "x"); err != nil {
		t.Fatal(err)
	}
	if r.res, err = core.DeclDat(r.cells, 1, nil, "res"); err != nil {
		t.Fatal(err)
	}
	if r.sum, err = core.DeclGlobal(1, nil, "sum"); err != nil {
		t.Fatal(err)
	}
	r.flux = &core.Loop{
		Name: "flux", Set: r.edges,
		Args: []core.Arg{
			core.ArgDat(r.x, 0, r.pecell, core.Read),
			core.ArgDat(r.x, 1, r.pecell, core.Read),
			core.ArgDat(r.res, 0, r.pecell, core.Inc),
			core.ArgDat(r.res, 1, r.pecell, core.Inc),
		},
		Kernel: func(v [][]float64) {
			f := v[0][0] - v[1][0]
			v[2][0] += f
			v[3][0] -= f
		},
	}
	r.scale = &core.Loop{
		Name: "scale", Set: r.cells,
		Args: []core.Arg{
			core.ArgDat(r.x, core.IDIdx, nil, core.RW),
			core.ArgDat(r.res, core.IDIdx, nil, core.Read),
		},
		Kernel: func(v [][]float64) { v[0][0] = v[0][0]*1.5 + v[1][0] },
	}
	r.total = &core.Loop{
		Name: "total", Set: r.cells,
		Args: []core.Arg{
			core.ArgDat(r.x, core.IDIdx, nil, core.Read),
			core.ArgGbl(r.sum, core.Inc),
		},
		Kernel: func(v [][]float64) { v[1][0] += v[0][0] },
	}
	return r
}

// runSteps executes `steps` rounds of flux → scale → total on the given
// runner and returns the bit patterns of x, res and the reduction.
func (r *ring) runSteps(t *testing.T, steps int, run func(*core.Loop) error) ([]uint64, []uint64, uint64) {
	t.Helper()
	for s := 0; s < steps; s++ {
		for _, l := range []*core.Loop{r.flux, r.scale, r.total} {
			if err := run(l); err != nil {
				t.Fatalf("step %d loop %s: %v", s, l.Name, err)
			}
		}
	}
	if err := r.x.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.res.Sync(); err != nil {
		t.Fatal(err)
	}
	bits := func(d *core.Dat) []uint64 {
		out := make([]uint64, len(d.Data()))
		for i, v := range d.Data() {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	return bits(r.x), bits(r.res), math.Float64bits(r.sum.Data()[0])
}

// serialRing computes the reference bit patterns on the serial executor.
// The block size matches the distributed engines below: bitwise equality
// holds for a fixed plan layout, exactly as with the shared-memory
// backends (op2/golden_test.go).
func serialRing(t *testing.T, n, steps int) ([]uint64, []uint64, uint64) {
	t.Helper()
	r := newRing(t, n)
	ex := core.NewExecutor(core.Config{Backend: core.Serial, BlockSize: 8})
	return r.runSteps(t, steps, ex.Run)
}

// serialFlux runs only the flux loop once and returns x and res bits.
func serialFlux(t *testing.T, n int) ([]uint64, []uint64) {
	t.Helper()
	r := newRing(t, n)
	ex := core.NewExecutor(core.Config{Backend: core.Serial, BlockSize: 8})
	if err := ex.Run(r.flux); err != nil {
		t.Fatal(err)
	}
	x := make([]uint64, n)
	res := make([]uint64, n)
	for i := 0; i < n; i++ {
		x[i] = math.Float64bits(r.x.Data()[i])
		res[i] = math.Float64bits(r.res.Data()[i])
	}
	return x, res
}

// TestEngineBitwiseAcrossRanks asserts the engine reproduces the serial
// executor bit-for-bit for a multi-loop program with indirect
// increments, halo refreshes between steps, and an Inc reduction — at
// several rank counts, including more ranks than elements.
func TestEngineBitwiseAcrossRanks(t *testing.T) {
	const n, steps = 50, 3
	xRef, resRef, sumRef := serialRing(t, n, steps)
	for _, ranks := range []int{1, 2, 3, 5, n + 3} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			r := newRing(t, n)
			e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ctx := context.Background()
			x, res, sum := r.runSteps(t, steps, func(l *core.Loop) error { return e.Run(ctx, l) })
			if sum != sumRef {
				t.Errorf("sum bits %#x != serial %#x", sum, sumRef)
			}
			for i := range x {
				if x[i] != xRef[i] || res[i] != resRef[i] {
					t.Fatalf("cell %d differs bitwise (x %#x vs %#x, res %#x vs %#x)",
						i, x[i], xRef[i], res[i], resRef[i])
				}
			}
		})
	}
}

// gatedTransport delays every message delivery until the test opens the
// gate; sends pass through immediately. It turns "interior work runs
// while messages are in flight" into a hard scheduling fact: if the
// engine waited for halos before interior work, the run would deadlock.
type gatedTransport struct {
	inner dist.Transport
	gate  chan struct{}
}

func (g *gatedTransport) Size() int { return g.inner.Size() }
func (g *gatedTransport) Send(src, dst int, p []float64) error {
	return g.inner.Send(src, dst, p)
}
func (g *gatedTransport) Recv(dst, src int) dist.RecvFuture {
	return &gatedFuture{inner: g.inner.Recv(dst, src), gate: g.gate}
}

// gatedFuture delays the resolution of an inner receive until the gate
// opens; Release passes through so the inner pooled future still
// recycles.
type gatedFuture struct {
	inner dist.RecvFuture
	gate  chan struct{}
}

func (f *gatedFuture) Wait() error {
	<-f.gate
	return f.inner.Wait()
}

func (f *gatedFuture) Ready() bool {
	select {
	case <-f.gate:
		return f.inner.Ready()
	default:
		return false
	}
}

func (f *gatedFuture) Get() ([]float64, error) {
	<-f.gate
	return f.inner.Get()
}

func (f *gatedFuture) Release() { f.inner.Release() }

// TestBodyOnlyLoopsRunDistributed runs loops that carry only a
// specialized Body — no generic Kernel — on the engine: each rank binds
// the body to its local arrays (localized maps included), and the result
// matches the serial executor bitwise.
func TestBodyOnlyLoopsRunDistributed(t *testing.T) {
	const n, steps = 50, 3
	bodies := func(r *ring) []*core.Loop {
		flux := &core.Loop{Name: "flux", Set: r.edges, Args: r.flux.Args,
			Body: func(b core.Bind) core.RangeBody {
				x, res, pc := b.Dat(r.x), b.Dat(r.res), b.Map(r.pecell)
				return func(lo, hi int, _ []float64) {
					for e := lo; e < hi; e++ {
						c1, c2 := pc[2*e], pc[2*e+1]
						f := x[c1] - x[c2]
						res[c1] += f
						res[c2] -= f
					}
				}
			}}
		scale := &core.Loop{Name: "scale", Set: r.cells, Args: r.scale.Args,
			Body: func(b core.Bind) core.RangeBody {
				x, res := b.Dat(r.x), b.Dat(r.res)
				return func(lo, hi int, _ []float64) {
					for c := lo; c < hi; c++ {
						x[c] = x[c]*1.5 + res[c]
					}
				}
			}}
		total := &core.Loop{Name: "total", Set: r.cells, Args: r.total.Args,
			Body: func(b core.Bind) core.RangeBody {
				x := b.Dat(r.x)
				return func(lo, hi int, sum []float64) {
					for c := lo; c < hi; c++ {
						sum[0] += x[c]
					}
				}
			}}
		return []*core.Loop{flux, scale, total}
	}
	run := func(r *ring, exec func(*core.Loop) error) ([]uint64, uint64) {
		for s := 0; s < steps; s++ {
			for _, l := range bodies(r) {
				if err := exec(l); err != nil {
					t.Fatalf("step %d loop %s: %v", s, l.Name, err)
				}
			}
		}
		for _, d := range []*core.Dat{r.x, r.res} {
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		var bits []uint64
		for _, d := range []*core.Dat{r.x, r.res} {
			for _, v := range d.Data() {
				bits = append(bits, math.Float64bits(v))
			}
		}
		return bits, math.Float64bits(r.sum.Data()[0])
	}
	ref := newRing(t, n)
	ex := core.NewExecutor(core.Config{Backend: core.Serial, BlockSize: 8})
	want, wantSum := run(ref, ex.Run)
	for _, ranks := range []int{1, 2, 3, 7} {
		r := newRing(t, n)
		e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, gotSum := run(r, func(l *core.Loop) error { return e.Run(context.Background(), l) })
		e.Close()
		if gotSum != wantSum {
			t.Errorf("ranks=%d: sum bits %#x, serial %#x", ranks, gotSum, wantSum)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ranks=%d: value %d differs bitwise from serial", ranks, i)
			}
		}
	}
}

// TestOverlapInteriorRunsBeforeHaloResolution is the overlap proof: the
// transport refuses to deliver any message until every rank has executed
// at least one interior run, so the loop can only complete if interior
// computation genuinely proceeds while the halo exchange is in flight —
// and boundary work is gated on resolution. An identity RW loop shards
// x first (sending nothing), so flux imports x's halo.
func TestOverlapInteriorRunsBeforeHaloResolution(t *testing.T) {
	const n, ranks = 64, 2
	xRef, resRef := serialFlux(t, n)

	r := newRing(t, n)
	gate := make(chan struct{})
	var mu sync.Mutex
	interiorSeen := map[int]bool{}
	boundaryEarly := false
	opened := false
	trace := func(loop string, rank int, phase string) {
		mu.Lock()
		defer mu.Unlock()
		if loop != "flux" {
			return
		}
		switch phase {
		case "interior":
			interiorSeen[rank] = true
			if len(interiorSeen) == ranks && !opened {
				opened = true
				close(gate)
			}
		case "boundary":
			if !opened {
				boundaryEarly = true
			}
		}
	}
	e, err := dist.NewEngine(dist.Config{
		Ranks:     ranks,
		BlockSize: 8,
		Transport: &gatedTransport{inner: dist.NewComm(ranks), gate: gate},
		Trace:     trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	shardX := &core.Loop{
		Name: "shardX", Set: r.cells,
		Args:   []core.Arg{core.ArgDat(r.x, core.IDIdx, nil, core.RW)},
		Kernel: func(v [][]float64) { v[0][0] *= 1 },
	}
	done := make(chan error, 1)
	go func() {
		done <- e.RunStep(context.Background(), "shard-then-flux", []*core.Loop{shardX, r.flux})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: engine waited for halo messages before executing interior runs")
	}
	if boundaryEarly {
		t.Fatal("boundary phase ran before halo messages were deliverable")
	}
	if e.MessagesSent() == 0 {
		t.Fatal("flux imported no halo; the overlap was not exercised")
	}
	if err := r.res.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.x.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, v := range r.res.Data() {
		if math.Float64bits(v) != resRef[i] || math.Float64bits(r.x.Data()[i]) != xRef[i] {
			t.Fatalf("cell %d differs from serial after overlapped run", i)
		}
	}
}

// TestCommSendFullErrors pins the overflow behaviour: a send into a pair
// that exceeded its in-flight bound reports a descriptive error instead
// of deadlocking, and poisons pending receives so no rank blocks forever.
func TestCommSendFullErrors(t *testing.T) {
	c := dist.NewCommDepth(2, 8)
	var err error
	for i := 0; ; i++ {
		if err = c.Send(0, 1, []float64{float64(i)}); err != nil {
			break
		}
		if i > 10000 {
			t.Fatal("send never reported a full channel")
		}
	}
	if !strings.Contains(err.Error(), "in-flight") || !strings.Contains(err.Error(), "drains") {
		t.Errorf("unhelpful full-channel error: %v", err)
	}
	if !errors.Is(err, dist.ErrCommOverflow) {
		t.Errorf("overflow error is not typed ErrCommOverflow: %v", err)
	}
	// The other direction's receiver must not hang either: the
	// communicator is poisoned.
	f := c.Recv(0, 1)
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("recv on a poisoned communicator succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv on a poisoned communicator blocked")
	}
}

// TestCancelThenRecover asserts a canceled collective loop reports
// ErrCanceled-compatible errors while keeping the message protocol
// aligned: the next loop on the same engine still produces the serial
// result.
func TestCancelThenRecover(t *testing.T) {
	const n = 40
	xRef, resRef := serialFlux(t, n)

	r := newRing(t, n)
	e, err := dist.NewEngine(dist.Config{Ranks: 3, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Run(canceled, r.flux); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}
	// The canceled collective skipped its kernels (zero increments), so
	// res is untouched and the engine must still be aligned.
	if err := e.Run(context.Background(), r.flux); err != nil {
		t.Fatal(err)
	}
	if err := r.res.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.x.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, v := range r.res.Data() {
		if math.Float64bits(v) != resRef[i] || math.Float64bits(r.x.Data()[i]) != xRef[i] {
			t.Fatalf("cell %d differs from serial after cancel+retry", i)
		}
	}
}

// TestAsyncPipelines issues a chain of loops without waiting and checks
// the final state: persistent workers process their mailboxes in order,
// so the chain needs no per-loop join.
func TestAsyncPipelines(t *testing.T) {
	const n, steps = 30, 25
	xRef, resRef, sumRef := serialRing(t, n, steps)

	r := newRing(t, n)
	e, err := dist.NewEngine(dist.Config{Ranks: 4, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	var last *hpx.Future[struct{}]
	for s := 0; s < steps; s++ {
		e.RunAsync(ctx, r.flux)
		e.RunAsync(ctx, r.scale)
		last = e.RunAsync(ctx, r.total)
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := r.x.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.res.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(r.sum.Data()[0]); got != sumRef {
		t.Errorf("sum bits %#x != serial %#x", got, sumRef)
	}
	for i := range xRef {
		if math.Float64bits(r.x.Data()[i]) != xRef[i] || math.Float64bits(r.res.Data()[i]) != resRef[i] {
			t.Fatalf("cell %d differs bitwise after pipelined run", i)
		}
	}
}

// TestAbandonedAsyncErrorSurfacesAtSync asserts a failed Async loop
// whose future was never waited on still reports its error at the next
// host fence (Dat.Sync) — matching the shared-memory dataflow backend,
// where failures propagate through the version chain — while errors
// already delivered by a synchronous Run are not reported twice. A
// kernel panic additionally fails the engine permanently, so the
// sub-cases each use a fresh engine and assert the fail-fast reject.
func TestAbandonedAsyncErrorSurfacesAtSync(t *testing.T) {
	ctx := context.Background()
	boomLoop := func(r *ring) *core.Loop {
		return &core.Loop{
			Name: "boom", Set: r.cells,
			Args:   []core.Arg{core.ArgDat(r.x, core.IDIdx, nil, core.RW)},
			Kernel: func(v [][]float64) { panic("kaboom") },
		}
	}

	// An abandoned Async panic surfaces at the next Sync, exactly once,
	// and permanently fails the engine: later submissions reject fast
	// with ErrRankFailed instead of running against torn state.
	{
		r := newRing(t, 20)
		e, err := dist.NewEngine(dist.Config{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.RunAsync(ctx, boomLoop(r)) // abandoned failure
		deadline := time.Now().Add(10 * time.Second)
		for e.Failed() == nil {
			if time.Now().After(deadline) {
				t.Fatal("kernel panic never failed the engine")
			}
			time.Sleep(time.Millisecond)
		}
		if err := e.Run(ctx, r.scale); !errors.Is(err, dist.ErrRankFailed) {
			t.Fatalf("submission on failed engine = %v, want ErrRankFailed", err)
		}
		if err := r.x.Sync(); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("Sync after abandoned failed Async = %v, want the kernel panic", err)
		}
		// Permanent failures keep failing every later fence, typed: the
		// state behind the fence is torn, so a clean Sync would invite
		// reading (or checkpointing) garbage.
		if err := r.x.Sync(); !errors.Is(err, dist.ErrRankFailed) {
			t.Fatalf("second Sync on failed engine = %v, want ErrRankFailed", err)
		}
	}

	// A synchronous Run delivers its own error; the next fence does not
	// replay it from the pending queue but still reports the standing
	// permanent failure, typed.
	{
		r := newRing(t, 20)
		e, err := dist.NewEngine(dist.Config{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Run(ctx, boomLoop(r)); err == nil {
			t.Fatal("Run of panicking loop succeeded")
		}
		if err := r.x.Sync(); !errors.Is(err, dist.ErrRankFailed) {
			t.Fatalf("Sync on failed engine = %v, want ErrRankFailed", err)
		}
	}

	// Plan-time failures of abandoned Async futures must surface too —
	// and, being validation errors, they do NOT fail the engine.
	{
		r := newRing(t, 20)
		e, err := dist.NewEngine(dist.Config{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// Shard x through a successful loop first so its Sync fences
		// through this engine.
		if err := e.Run(ctx, r.scale); err != nil {
			t.Fatal(err)
		}
		badPlan := &core.Loop{
			Name: "badplan", Set: r.edges,
			Args:   []core.Arg{core.ArgDat(r.x, 0, r.pecell, core.RW)},
			Kernel: func(v [][]float64) {},
		}
		e.RunAsync(ctx, badPlan) // future abandoned
		if err := r.x.Sync(); !errors.Is(err, dist.ErrInvalid) {
			t.Fatalf("Sync after abandoned plan-error Async = %v, want ErrInvalid", err)
		}
		if err := r.x.Sync(); err != nil {
			t.Fatalf("plan error re-reported: %v", err)
		}
		if e.Failed() != nil {
			t.Fatalf("plan-time error failed the engine: %v", e.Failed())
		}
		if err := e.Run(ctx, r.scale); err != nil {
			t.Fatalf("engine unusable after plan-time error: %v", err)
		}
	}
}

// TestInlineLoopsShareOnePlan asserts the plan cache keys structurally:
// re-declaring an identical loop each timestep (the idiomatic inline
// pattern) reuses one cached plan instead of growing without bound, and
// each submission's own kernel runs.
func TestInlineLoopsShareOnePlan(t *testing.T) {
	r := newRing(t, 24)
	e, err := dist.NewEngine(dist.Config{Ranks: 3, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	for step := 0; step < 5; step++ {
		add := float64(step + 1)
		inline := &core.Loop{
			Name: "inline", Set: r.cells,
			Args:   []core.Arg{core.ArgDat(r.x, core.IDIdx, nil, core.RW)},
			Kernel: func(v [][]float64) { v[0][0] += add }, // fresh closure per step
		}
		if err := e.Run(ctx, inline); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.PlanCount(); n != 1 {
		t.Errorf("5 structurally identical inline loops built %d plans, want 1", n)
	}
	if err := r.x.Sync(); err != nil {
		t.Fatal(err)
	}
	// Each step's own kernel ran: +1, +2, ... +5, folded in step order.
	for i, v := range r.x.Data() {
		want := math.Sin(float64(i)*0.7) + 2
		for s := 1; s <= 5; s++ {
			want += float64(s)
		}
		if v != want {
			t.Fatalf("x[%d] = %g, want %g", i, v, want)
		}
	}
}

// TestMinMaxTreeReduction checks the associative reductions that combine
// per-rank partials up a binary tree.
func TestMinMaxTreeReduction(t *testing.T) {
	const n = 37
	r := newRing(t, n)
	lo, err := core.DeclGlobal(1, []float64{math.Inf(1)}, "lo")
	if err != nil {
		t.Fatal(err)
	}
	hi, err := core.DeclGlobal(1, []float64{math.Inf(-1)}, "hi")
	if err != nil {
		t.Fatal(err)
	}
	extrema := &core.Loop{
		Name: "extrema", Set: r.cells,
		Args: []core.Arg{
			core.ArgDat(r.x, core.IDIdx, nil, core.Read),
			core.ArgGbl(lo, core.Min),
			core.ArgGbl(hi, core.Max),
		},
		Kernel: func(v [][]float64) {
			if v[0][0] < v[1][0] {
				v[1][0] = v[0][0]
			}
			if v[0][0] > v[2][0] {
				v[2][0] = v[0][0]
			}
		},
	}
	e, err := dist.NewEngine(dist.Config{Ranks: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Run(context.Background(), extrema); err != nil {
		t.Fatal(err)
	}
	wantLo, wantHi := math.Inf(1), math.Inf(-1)
	for _, v := range r.x.Data() {
		wantLo = math.Min(wantLo, v)
		wantHi = math.Max(wantHi, v)
	}
	if lo.Data()[0] != wantLo || hi.Data()[0] != wantHi {
		t.Errorf("extrema (%g, %g), want (%g, %g)", lo.Data()[0], hi.Data()[0], wantLo, wantHi)
	}
}

// TestEngineValidation pins the distributed-specific rejections.
func TestEngineValidation(t *testing.T) {
	r := newRing(t, 10)
	e, err := dist.NewEngine(dist.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	rw := &core.Loop{
		Name: "rw", Set: r.edges,
		Args:   []core.Arg{core.ArgDat(r.x, 0, r.pecell, core.RW)},
		Kernel: func(v [][]float64) {},
	}
	if err := e.Run(ctx, rw); !errors.Is(err, dist.ErrInvalid) {
		t.Errorf("indirect RW accepted: %v", err)
	}
	// Reading a dat the same loop increments cannot reproduce serial
	// semantics under buffered increments — must be rejected, not
	// silently diverge.
	readInc := &core.Loop{
		Name: "readinc", Set: r.edges,
		Args: []core.Arg{
			core.ArgDat(r.x, 0, r.pecell, core.Read),
			core.ArgDat(r.x, 1, r.pecell, core.Inc),
		},
		Kernel: func(v [][]float64) { v[1][0] += v[0][0] },
	}
	if err := e.Run(ctx, readInc); !errors.Is(err, dist.ErrInvalid) {
		t.Errorf("read+inc of the same dat accepted: %v", err)
	}
	if _, err := dist.NewEngine(dist.Config{Ranks: 0}); err == nil {
		t.Error("0-rank engine accepted")
	}

	// A geometry partitioner without registered topology must fail with
	// a pointer to RegisterTopology.
	e2, err := dist.NewEngine(dist.Config{Ranks: 2, Partitioner: part.RCB{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	r2 := newRing(t, 10)
	if err := e2.Run(ctx, r2.scale); !errors.Is(err, dist.ErrInvalid) {
		t.Errorf("RCB without topology accepted: %v", err)
	}
}
