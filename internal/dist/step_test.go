package dist_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
)

// stepRing extends the ring fixture with two independent halo-reading
// loops over the edges (writing distinct edge dats) and a direct cell
// loop on an unrelated dat, the shapes the step optimizations act on.
type stepRing struct {
	*ring
	ea, eb *core.Dat  // edge dats written by the two readers
	y      *core.Dat  // cell dat untouched by flux/spread
	readA  *core.Loop // ea[e] = x[c1] + x[c2]   (imports the x halo)
	readB  *core.Loop // eb[e] = x[c1] * x[c2]   (imports the x halo too)
	spread *core.Loop // res[c1] += 1; res[c2] -= 1 (pure increments, no halo reads)
	scaleY *core.Loop // y *= 2 (direct, independent of res)
	shardX *core.Loop // x *= 1 (direct RW: forces x into owned+halo storage)
}

func newStepRing(t *testing.T, n int) *stepRing {
	t.Helper()
	s := &stepRing{ring: newRing(t, n)}
	var err error
	if s.ea, err = core.DeclDat(s.edges, 1, nil, "ea"); err != nil {
		t.Fatal(err)
	}
	if s.eb, err = core.DeclDat(s.edges, 1, nil, "eb"); err != nil {
		t.Fatal(err)
	}
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = float64(i) + 0.5
	}
	if s.y, err = core.DeclDat(s.cells, 1, ys, "y"); err != nil {
		t.Fatal(err)
	}
	s.readA = &core.Loop{
		Name: "readA", Set: s.edges,
		Args: []core.Arg{
			core.ArgDat(s.x, 0, s.pecell, core.Read),
			core.ArgDat(s.x, 1, s.pecell, core.Read),
			core.ArgDat(s.ea, core.IDIdx, nil, core.Write),
		},
		Kernel: func(v [][]float64) { v[2][0] = v[0][0] + v[1][0] },
	}
	s.readB = &core.Loop{
		Name: "readB", Set: s.edges,
		Args: []core.Arg{
			core.ArgDat(s.x, 0, s.pecell, core.Read),
			core.ArgDat(s.x, 1, s.pecell, core.Read),
			core.ArgDat(s.eb, core.IDIdx, nil, core.Write),
		},
		Kernel: func(v [][]float64) { v[2][0] = v[0][0] * v[1][0] },
	}
	s.spread = &core.Loop{
		Name: "spread", Set: s.edges,
		Args: []core.Arg{
			core.ArgDat(s.res, 0, s.pecell, core.Inc),
			core.ArgDat(s.res, 1, s.pecell, core.Inc),
		},
		Kernel: func(v [][]float64) {
			v[0][0] += 1
			v[1][0] -= 1
		},
	}
	s.scaleY = &core.Loop{
		Name: "scaleY", Set: s.cells,
		Args:   []core.Arg{core.ArgDat(s.y, core.IDIdx, nil, core.RW)},
		Kernel: func(v [][]float64) { v[0][0] *= 2 },
	}
	s.shardX = &core.Loop{
		Name: "shardX", Set: s.cells,
		Args:   []core.Arg{core.ArgDat(s.x, core.IDIdx, nil, core.RW)},
		Kernel: func(v [][]float64) { v[0][0] *= 1 },
	}
	return s
}

// TestStepCoalescesSharedHalo is the halo-batching proof: two loops of
// one step importing the same dat's halo post ONE read exchange (the
// leader's), so the step sends strictly fewer messages than the same
// loops issued one at a time — and exactly as many as a single reader.
func TestStepCoalescesSharedHalo(t *testing.T) {
	const n, ranks = 48, 3
	ctx := context.Background()

	countRun := func(run func(e *dist.Engine, s *stepRing) error) int64 {
		s := newStepRing(t, n)
		e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Run(ctx, s.shardX); err != nil { // shard x so halos exist
			t.Fatal(err)
		}
		before := e.MessagesSent()
		if err := run(e, s); err != nil {
			t.Fatal(err)
		}
		return e.MessagesSent() - before
	}

	loopAtATime := countRun(func(e *dist.Engine, s *stepRing) error {
		if err := e.Run(ctx, s.readA); err != nil {
			return err
		}
		return e.Run(ctx, s.readB)
	})
	stepped := countRun(func(e *dist.Engine, s *stepRing) error {
		return e.RunStep(ctx, "both", []*core.Loop{s.readA, s.readB})
	})
	single := countRun(func(e *dist.Engine, s *stepRing) error {
		return e.Run(ctx, s.readA)
	})
	if loopAtATime == 0 {
		t.Fatal("no halo messages at all; the fixture is broken")
	}
	if stepped >= loopAtATime {
		t.Errorf("step sent %d messages, loop-at-a-time %d: no coalescing", stepped, loopAtATime)
	}
	if stepped != single {
		t.Errorf("coalesced step sent %d messages, a single reader sends %d: the q exchange was not posted exactly once", stepped, single)
	}

	// And the coalesced results must still be right.
	s := newStepRing(t, n)
	e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Run(ctx, s.shardX); err != nil {
		t.Fatal(err)
	}
	if err := e.RunStep(ctx, "both", []*core.Loop{s.readA, s.readB}); err != nil {
		t.Fatal(err)
	}
	if err := s.ea.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.eb.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.x.Sync(); err != nil {
		t.Fatal(err)
	}
	for eIdx := 0; eIdx < n; eIdx++ {
		c1, c2 := s.pecell.At(eIdx, 0), s.pecell.At(eIdx, 1)
		x1, x2 := s.x.Data()[c1], s.x.Data()[c2]
		if got, want := s.ea.Data()[eIdx], x1+x2; got != want {
			t.Fatalf("ea[%d] = %g, want %g", eIdx, got, want)
		}
		if got, want := s.eb.Data()[eIdx], x1*x2; got != want {
			t.Fatalf("eb[%d] = %g, want %g", eIdx, got, want)
		}
	}
}

// TestStepNonMonotonicApplyDues pins increments to DIFFERENT dats
// observed in the opposite order they were made: spread increments res
// (read by nobody in the step), the later incY increments y, which
// scaleY then rewrites. Every increment must have landed on its owner
// by the time a later loop reads the dat, or the result is silently
// wrong.
func TestStepNonMonotonicApplyDues(t *testing.T) {
	const n, ranks = 40, 3
	build := func() (*stepRing, *core.Loop) {
		s := newStepRing(t, n)
		incY := &core.Loop{
			Name: "incY", Set: s.edges,
			Args: []core.Arg{
				core.ArgDat(s.y, 0, s.pecell, core.Inc),
				core.ArgDat(s.y, 1, s.pecell, core.Inc),
			},
			Kernel: func(v [][]float64) {
				v[0][0] += 2
				v[1][0] -= 1
			},
		}
		return s, incY
	}

	ref, refIncY := build()
	ex := core.NewExecutor(core.Config{Backend: core.Serial, BlockSize: 8})
	for _, l := range []*core.Loop{ref.spread, refIncY, ref.scaleY} {
		if err := ex.Run(l); err != nil {
			t.Fatal(err)
		}
	}

	s, incY := build()
	e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.RunStep(context.Background(), "nonmono", []*core.Loop{s.spread, incY, s.scaleY}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*core.Dat{s.res, s.y} {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(s.y.Data()[i]) != math.Float64bits(ref.y.Data()[i]) {
			t.Fatalf("y[%d] = %g, serial %g: incY's increments had not landed before scaleY", i, s.y.Data()[i], ref.y.Data()[i])
		}
		if math.Float64bits(s.res.Data()[i]) != math.Float64bits(ref.res.Data()[i]) {
			t.Fatalf("res[%d] differs from serial", i)
		}
	}
}

// TestStepPipelineFewerMessages runs a full time loop of the
// gradient→limiter-style shape (two loops reading the same field's halo,
// then a direct update rewriting the field) and asserts the step issue
// sends strictly fewer halo messages PER ITERATION than loop-at-a-time
// issue, in steady state, while producing identical results — the
// acceptance shape of the halo-batching ROADMAP item.
func TestStepPipelineFewerMessages(t *testing.T) {
	const n, ranks, iters = 48, 3, 4
	ctx := context.Background()

	type result struct {
		msgs   int64
		ea, eb []uint64
	}
	run := func(step bool) result {
		s := newStepRing(t, n)
		e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		loops := []*core.Loop{s.readA, s.readB, s.shardX} // two readers, then x is rewritten
		iterate := func() {
			if step {
				if err := e.RunStep(ctx, "pipe", loops); err != nil {
					t.Fatal(err)
				}
				return
			}
			for _, l := range loops {
				if err := e.Run(ctx, l); err != nil {
					t.Fatal(err)
				}
			}
		}
		iterate() // warm-up: plans, shards, halos
		before := e.MessagesSent()
		for i := 0; i < iters; i++ {
			iterate()
		}
		res := result{msgs: e.MessagesSent() - before}
		for _, d := range []*core.Dat{s.ea, s.eb, s.x} {
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range s.ea.Data() {
			res.ea = append(res.ea, math.Float64bits(v))
		}
		for _, v := range s.eb.Data() {
			res.eb = append(res.eb, math.Float64bits(v))
		}
		return res
	}
	unbatched := run(false)
	batched := run(true)
	if unbatched.msgs == 0 {
		t.Fatal("pipeline sent no messages; fixture broken")
	}
	if batched.msgs >= unbatched.msgs {
		t.Errorf("step pipeline sent %d messages over %d iterations, loop-at-a-time %d: want strictly fewer",
			batched.msgs, iters, unbatched.msgs)
	}
	for i := range unbatched.ea {
		if batched.ea[i] != unbatched.ea[i] || batched.eb[i] != unbatched.eb[i] {
			t.Fatalf("edge %d differs bitwise between batched and unbatched issue", i)
		}
	}
}

// TestStepWriteSplitsCoalescingGroup pins the safety condition: a write
// to the shared dat between two importers forces a second exchange (the
// halo is stale), so the step sends as many read exchanges as
// loop-at-a-time does in that shape.
func TestStepWriteSplitsCoalescingGroup(t *testing.T) {
	const n, ranks = 32, 2
	ctx := context.Background()
	s := newStepRing(t, n)
	e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Run(ctx, s.shardX); err != nil {
		t.Fatal(err)
	}
	before := e.MessagesSent()
	// readA imports x; shardX overwrites x; readB must re-import.
	if err := e.RunStep(ctx, "split", []*core.Loop{s.readA, s.shardX, s.readB}); err != nil {
		t.Fatal(err)
	}
	stepped := e.MessagesSent() - before

	s2 := newStepRing(t, n)
	e2, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Run(ctx, s2.shardX); err != nil {
		t.Fatal(err)
	}
	before = e2.MessagesSent()
	for _, l := range []*core.Loop{s2.readA, s2.shardX, s2.readB} {
		if err := e2.Run(ctx, l); err != nil {
			t.Fatal(err)
		}
	}
	loopAtATime := e2.MessagesSent() - before
	if stepped != loopAtATime {
		t.Errorf("write-split step sent %d messages, loop-at-a-time %d: the intervening write must not be coalesced across", stepped, loopAtATime)
	}

	// Correctness: readB observed the rewritten x.
	if err := s.eb.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.x.Sync(); err != nil {
		t.Fatal(err)
	}
	for eIdx := 0; eIdx < n; eIdx++ {
		c1, c2 := s.pecell.At(eIdx, 0), s.pecell.At(eIdx, 1)
		if got, want := s.eb.Data()[eIdx], s.x.Data()[c1]*s.x.Data()[c2]; got != want {
			t.Fatalf("eb[%d] = %g, want %g", eIdx, got, want)
		}
	}
}

// TestStepIncExchangeOverlapsNextInterior pins that increments never
// wait on the wire: spread increments res through the map, and every
// rank applies all contributions to its owned targets in place by
// executing its exec halo, so the step sends no message at all. The
// transport refuses to deliver ANY message until every rank has executed
// an interior run of the SECOND loop; an engine that still exchanged
// spread's increments before moving on would deadlock.
func TestStepIncExchangeOverlapsNextInterior(t *testing.T) {
	const n, ranks = 64, 2
	s := newStepRing(t, n)
	gate := make(chan struct{})
	var mu sync.Mutex
	nextSeen := map[int]bool{}
	opened := false
	trace := func(loop string, rank int, phase string) {
		mu.Lock()
		defer mu.Unlock()
		if loop == "scaleY" && phase == "interior" {
			nextSeen[rank] = true
			if len(nextSeen) == ranks && !opened {
				opened = true
				close(gate)
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

	done := make(chan error, 1)
	go func() {
		done <- e.RunStep(context.Background(), "overlap", []*core.Loop{s.spread, s.scaleY})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: the engine waited for an increment exchange before executing the next loop's interior")
	}
	if sent := e.MessagesSent(); sent != 0 {
		t.Fatalf("the increment-only step sent %d messages, want 0", sent)
	}
	// Bitwise correctness of the in-place increments against serial.
	ref := newStepRing(t, n)
	ex := core.NewExecutor(core.Config{Backend: core.Serial, BlockSize: 8})
	if err := ex.Run(ref.spread); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(ref.scaleY); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*core.Dat{s.res, s.y} {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(s.res.Data()[i]) != math.Float64bits(ref.res.Data()[i]) {
			t.Fatalf("res[%d] differs from serial", i)
		}
		if math.Float64bits(s.y.Data()[i]) != math.Float64bits(ref.y.Data()[i]) {
			t.Fatalf("y[%d] differs from serial", i)
		}
	}
}

// TestStepBitwiseAcrossRanks runs the full ring program as one step per
// timestep and asserts bitwise identity with the serial executor — the
// coalescing and deferral must be invisible in the results.
func TestStepBitwiseAcrossRanks(t *testing.T) {
	const n, steps = 50, 3
	xRef, resRef, sumRef := serialRing(t, n, steps)
	for _, ranks := range []int{1, 2, 5} {
		r := newRing(t, n)
		e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		loops := []*core.Loop{r.flux, r.scale, r.total}
		for s := 0; s < steps; s++ {
			if err := e.RunStep(ctx, "ring", loops); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.x.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := r.res.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(r.sum.Data()[0]); got != sumRef {
			t.Errorf("ranks=%d: sum bits %#x != serial %#x", ranks, got, sumRef)
		}
		for i := range xRef {
			if math.Float64bits(r.x.Data()[i]) != xRef[i] || math.Float64bits(r.res.Data()[i]) != resRef[i] {
				t.Fatalf("ranks=%d: cell %d differs bitwise after stepped run", ranks, i)
			}
		}
		e.Close()
	}
}

// TestStepRejectsGlobalReadAfterReduce pins the distributed-step
// restriction: reductions fold at step end, so a loop reading a global
// an earlier loop of the same step reduces must be rejected instead of
// observing a stale value.
func TestStepRejectsGlobalReadAfterReduce(t *testing.T) {
	r := newRing(t, 20)
	reader := &core.Loop{
		Name: "reader", Set: r.cells,
		Args: []core.Arg{
			core.ArgDat(r.x, core.IDIdx, nil, core.RW),
			core.ArgGbl(r.sum, core.Read),
		},
		Kernel: func(v [][]float64) { v[0][0] += v[1][0] },
	}
	e, err := dist.NewEngine(dist.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	err = e.RunStep(context.Background(), "bad", []*core.Loop{r.total, reader})
	if !errors.Is(err, dist.ErrInvalid) {
		t.Fatalf("read-after-reduce step accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "split the step") {
		t.Errorf("unhelpful rejection: %v", err)
	}
	// Splitting at the read works.
	if err := e.RunStep(context.Background(), "ok1", []*core.Loop{r.total}); err != nil {
		t.Fatal(err)
	}
	if err := r.sum.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e.RunStep(context.Background(), "ok2", []*core.Loop{reader}); err != nil {
		t.Fatal(err)
	}
}

// TestRescatterPropagatesHostWrites closes the one-shot-scatter gap:
// after a loop has sharded a dat, host writes into Data() followed by
// Rescatter are observed by later loops, and plans survive untouched.
func TestRescatterPropagatesHostWrites(t *testing.T) {
	const n = 30
	r := newRing(t, n)
	e, err := dist.NewEngine(dist.Config{Ranks: 3, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	// Rescatter before any sharding is a no-op (the host array is still
	// authoritative).
	if err := r.x.Rescatter(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx, r.scale); err != nil { // shards x
		t.Fatal(err)
	}
	if err := r.x.Sync(); err != nil {
		t.Fatal(err)
	}
	builds := e.PlanBuilds()

	// Host update: new boundary condition, ignored without Rescatter.
	for i := 0; i < n; i++ {
		r.x.Data()[i] = float64(i) * 3
	}
	if err := r.x.Rescatter(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx, r.scale); err != nil {
		t.Fatal(err)
	}
	if err := r.x.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.res.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		wantX := float64(i)*3*1.5 + r.res.Data()[i]
		if got := r.x.Data()[i]; got != wantX {
			t.Fatalf("x[%d] = %g, want %g: Rescatter did not propagate the host write", i, got, wantX)
		}
	}
	if e.PlanBuilds() != builds {
		t.Errorf("Rescatter invalidated plans: %d builds, was %d", e.PlanBuilds(), builds)
	}
}

// TestPerDatPlanInvalidation pins the ROADMAP item: re-sharding one dat
// rebuilds only the plans that actually read it replicated; unrelated
// loops' locator tables survive.
func TestPerDatPlanInvalidation(t *testing.T) {
	const n = 20
	cells, err := core.DeclSet(n, "cells")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *core.Dat {
		d, err := core.DeclDat(cells, 1, nil, name)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk("a"), mk("b")
	outA, outB := mk("outA"), mk("outB")
	loopA := &core.Loop{
		Name: "loopA", Set: cells,
		Args: []core.Arg{
			core.ArgDat(a, core.IDIdx, nil, core.Read),
			core.ArgDat(outA, core.IDIdx, nil, core.Write),
		},
		Kernel: func(v [][]float64) { v[1][0] = v[0][0] + 1 },
	}
	loopB := &core.Loop{
		Name: "loopB", Set: cells,
		Args: []core.Arg{
			core.ArgDat(b, core.IDIdx, nil, core.Read),
			core.ArgDat(outB, core.IDIdx, nil, core.Write),
		},
		Kernel: func(v [][]float64) { v[1][0] = v[0][0] + 2 },
	}
	shardB := &core.Loop{
		Name: "shardB", Set: cells,
		Args:   []core.Arg{core.ArgDat(b, core.IDIdx, nil, core.RW)},
		Kernel: func(v [][]float64) { v[0][0] += 1 },
	}
	e, err := dist.NewEngine(dist.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	for _, l := range []*core.Loop{loopA, loopB} {
		if err := e.Run(ctx, l); err != nil {
			t.Fatal(err)
		}
	}
	base := e.PlanBuilds()
	if err := e.Run(ctx, shardB); err != nil { // shards b → invalidates loopB only
		t.Fatal(err)
	}
	afterShard := e.PlanBuilds()
	if afterShard != base+1 {
		t.Fatalf("sharding b built %d plans, want 1 (shardB itself)", afterShard-base)
	}
	if err := e.Run(ctx, loopA); err != nil { // must be a cache hit
		t.Fatal(err)
	}
	if e.PlanBuilds() != afterShard {
		t.Errorf("re-sharding b rebuilt unrelated loopA's plan")
	}
	if err := e.Run(ctx, loopB); err != nil { // rebuilt against the shards
		t.Fatal(err)
	}
	if e.PlanBuilds() != afterShard+1 {
		t.Errorf("loopB was not rebuilt after its dat was sharded (builds %d, want %d)", e.PlanBuilds(), afterShard+1)
	}
	// And loopB now reads the sharded b.
	if err := outB.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, want := outB.Data()[i], b.Data()[i]+2; got != want {
			t.Fatalf("outB[%d] = %g, want %g", i, got, want)
		}
	}
}

// TestStepErrorSurfacesOnStepFuture is the Future-ack regression: an
// error from any loop inside a step resolves the step's own future, and
// waiting that future (or the synchronous RunStep) marks it delivered so
// the next fence does not replay it from the pending queue. A kernel
// panic is a permanent failure, though, so the fence still reports the
// standing ErrRankFailed rejection instead of going clean.
func TestStepErrorSurfacesOnStepFuture(t *testing.T) {
	r := newRing(t, 20)
	boom := &core.Loop{
		Name: "boom", Set: r.cells,
		Args:   []core.Arg{core.ArgDat(r.x, core.IDIdx, nil, core.RW)},
		Kernel: func(v [][]float64) { panic("kaboom") },
	}
	e, err := dist.NewEngine(dist.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	fut := e.RunStepAsync(ctx, "failing", []*core.Loop{r.scale, boom, r.scale})
	werr := fut.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "kaboom") {
		t.Fatalf("step future resolved with %v, want the mid-step kernel panic", werr)
	}
	e.AckError(werr) // what the op2 facade's Future.Wait does
	if err := r.x.Sync(); !errors.Is(err, dist.ErrRankFailed) {
		t.Fatalf("Sync on failed engine = %v, want ErrRankFailed", err)
	}
}
