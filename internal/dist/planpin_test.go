package dist_test

import (
	"context"
	"fmt"
	"testing"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
)

// TestRankPlansPinned pins the rank plans the engine builds for the ring
// fixture. The bitwise goldens cannot catch a changed plan — any plan
// that follows serial order is bitwise correct — so a rewrite of the plan
// builder that moves an element between runs, reorders imports or
// renumbers a halo slot fails here instead.
func TestRankPlansPinned(t *testing.T) {
	const n = 50
	for _, pin := range []struct {
		ranks  int
		digest uint64
	}{{2, 0x7e21d816c75fc3d}, {3, 0x7764a169bfa221f1}, {5, 0xb136fba58c410666}} {
		t.Run(fmt.Sprintf("ranks=%d", pin.ranks), func(t *testing.T) {
			r := newRing(t, n)
			e, err := dist.NewEngine(dist.Config{Ranks: pin.ranks, BlockSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ctx := context.Background()
			r.runSteps(t, 2, func(l *core.Loop) error { return e.Run(ctx, l) })
			if got := e.PlanDigest(); got != pin.digest {
				t.Errorf("plan digest %#x, want %#x", got, pin.digest)
			}
		})
	}
}
