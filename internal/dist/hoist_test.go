package dist_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
)

// TestHoistedExchangePostsBeforeIntermediateLoop is the hoisted-exchange
// proof: in the step
//
//	scale   (direct RW of x — the producer)
//	scaleY  (independent cell loop on y)
//	readA   (imports the x halo — the leader)
//
// readA's read-halo exchange is ready as soon as scale has executed, so
// the plan posts it at the start of occurrence 1 and the messages travel
// while scaleY computes. The trace must show the "hoist" post on every
// exchanging rank BEFORE that rank executes any scaleY interior chunk —
// and the result must stay bitwise-identical to the serial backend.
func TestHoistedExchangePostsBeforeIntermediateLoop(t *testing.T) {
	const n, ranks = 48, 3
	ctx := context.Background()

	// Serial reference.
	ref := newStepRing(t, n)
	exRef := core.NewExecutor(core.Config{Backend: core.Serial})
	for _, l := range []*core.Loop{ref.shardX, ref.scale, ref.scaleY, ref.readA} {
		if err := exRef.Run(l); err != nil {
			t.Fatal(err)
		}
	}

	s := newStepRing(t, n)
	var mu sync.Mutex
	hoistSeen := map[int]bool{}   // rank → readA's exchange posted (hoist phase)
	scaleYAfter := map[int]bool{} // rank → scaleY interior ran before the hoist post
	trace := func(loop string, rank int, phase string) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case loop == "readA" && phase == "hoist":
			hoistSeen[rank] = true
		case loop == "scaleY" && phase == "interior":
			if !hoistSeen[rank] {
				scaleYAfter[rank] = true
			}
		}
	}
	e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Run(ctx, s.shardX); err != nil { // shard x so halos exist
		t.Fatal(err)
	}
	before := e.MessagesSent()
	if err := e.RunStep(ctx, "hoisted", []*core.Loop{s.scale, s.scaleY, s.readA}); err != nil {
		t.Fatal(err)
	}
	stepMsgs := e.MessagesSent() - before

	if len(hoistSeen) == 0 {
		t.Fatal("no rank posted readA's exchange through the hoist path")
	}
	for r := range hoistSeen {
		if scaleYAfter[r] {
			t.Errorf("rank %d executed scaleY interior before the hoisted exchange was posted", r)
		}
	}

	// Hoisting moves the posting only: the same single coalesced exchange
	// is sent, so the step's message count equals the same loops issued
	// one at a time (scale and scaleY exchange nothing).
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
	for _, l := range []*core.Loop{s2.scale, s2.scaleY, s2.readA} {
		if err := e2.Run(ctx, l); err != nil {
			t.Fatal(err)
		}
	}
	if loopMsgs := e2.MessagesSent() - before; stepMsgs != loopMsgs {
		t.Errorf("hoisted step sent %d messages, loop-at-a-time sent %d — hoisting must not change the count", stepMsgs, loopMsgs)
	}

	// Bitwise identity to serial.
	for _, d := range []*core.Dat{s.ea, s.y, s.x} {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.ea.Data() {
		if math.Float64bits(s.ea.Data()[i]) != math.Float64bits(ref.ea.Data()[i]) {
			t.Fatalf("ea[%d] differs bitwise from serial after hoisted step", i)
		}
	}
	for i := range s.y.Data() {
		if math.Float64bits(s.y.Data()[i]) != math.Float64bits(ref.y.Data()[i]) {
			t.Fatalf("y[%d] differs bitwise from serial after hoisted step", i)
		}
	}
}

// TestHoistWaitsForIncrementApply pins the other half of the hoist rule:
// when the producing loop writes through increments (spread), the
// exchange can only post once spread has run — its increments land in
// place during its occurrence, so posting earlier would ship stale owned
// values. The step
//
//	spread  (increments res through the map, exec halo included)
//	scaleY  (independent)
//	readRes (imports the res halo)
//
// must produce the serial result bitwise: a hoist before spread would
// break it.
func TestHoistWaitsForIncrementApply(t *testing.T) {
	const n, ranks = 48, 3
	ctx := context.Background()

	readRes := func(s *stepRing) *core.Loop {
		return &core.Loop{
			Name: "readRes", Set: s.edges,
			Args: []core.Arg{
				core.ArgDat(s.res, 0, s.pecell, core.Read),
				core.ArgDat(s.res, 1, s.pecell, core.Read),
				core.ArgDat(s.ea, core.IDIdx, nil, core.Write),
			},
			Kernel: func(v [][]float64) { v[2][0] = v[0][0] - 2*v[1][0] },
		}
	}

	ref := newStepRing(t, n)
	exRef := core.NewExecutor(core.Config{Backend: core.Serial})
	for _, l := range []*core.Loop{ref.spread, ref.scaleY, readRes(ref)} {
		if err := exRef.Run(l); err != nil {
			t.Fatal(err)
		}
	}

	s := newStepRing(t, n)
	e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.RunStep(ctx, "inc-then-read", []*core.Loop{s.spread, s.scaleY, readRes(s)}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*core.Dat{s.ea, s.res} {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.ea.Data() {
		if math.Float64bits(s.ea.Data()[i]) != math.Float64bits(ref.ea.Data()[i]) {
			t.Fatalf("ea[%d] differs bitwise from serial (hoist shipped pre-apply values?)", i)
		}
	}
}
