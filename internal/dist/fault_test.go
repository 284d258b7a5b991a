// Fault-detection suite: every scripted transport fault must converge
// to a typed step error in bounded time — no deadlocks — at several
// rank counts, and a permanent failure must fail the whole engine fast
// (ErrRankFailed on later submissions). The injection machinery lives
// in internal/fault; this file proves the engine's detection half.
package dist_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
	"op2hpx/internal/fault"
)

// faultBound is the wall-clock bound every injected fault must fail
// within; a run still pending after it counts as a deadlock.
const faultBound = 10 * time.Second

// faultRanks are the rank counts the whole suite sweeps, including one
// that does not divide the ring size evenly.
var faultRanks = []int{2, 4, 7}

// runBounded runs f on its own goroutine and fails the test if it does
// not return within faultBound.
func runBounded(t *testing.T, f func() error) error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- f() }()
	select {
	case err := <-errCh:
		return err
	case <-time.After(faultBound):
		t.Fatalf("run still pending after %v: fault did not converge (deadlock)", faultBound)
		return nil
	}
}

// faultEngine builds a ring and a distributed engine over a
// fault-injecting transport with a short halo timeout.
func faultEngine(t *testing.T, ranks int, rules ...fault.Rule) (*ring, *dist.Engine, *fault.Transport) {
	t.Helper()
	r := newRing(t, 50)
	ft := fault.New(dist.NewComm(ranks), rules...)
	e, err := dist.NewEngine(dist.Config{
		Ranks: ranks, BlockSize: 8,
		Transport:   ft,
		HaloTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() }) //nolint:errcheck
	return r, e, ft
}

// stepUntilError drives scale+flux rounds until one fails (halo faults
// can surface a round late: an extra or missing message is detected by
// the next receive on the pair) and returns the first error. scale
// writes x, so flux imports x's halo every round.
func stepUntilError(t *testing.T, r *ring, e *dist.Engine, rounds int) error {
	t.Helper()
	return runBounded(t, func() error {
		ctx := context.Background()
		for i := 0; i < rounds; i++ {
			for _, l := range []*core.Loop{r.scale, r.flux} {
				if err := e.Run(ctx, l); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// requireEngineFailed asserts the engine reached its permanent-failure
// state and fast-rejects new submissions with ErrRankFailed.
func requireEngineFailed(t *testing.T, r *ring, e *dist.Engine) {
	t.Helper()
	deadline := time.Now().Add(faultBound)
	for e.Failed() == nil {
		if time.Now().After(deadline) {
			t.Fatal("engine never marked itself failed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Run(context.Background(), r.scale); !errors.Is(err, dist.ErrRankFailed) {
		t.Fatalf("post-failure Run = %v, want ErrRankFailed", err)
	}
}

// TestDropFaultFailsTyped: a dropped halo message surfaces as either a
// halo timeout (nothing else arrives on the pair) or a corrupt frame (a
// later message arrives tagged ahead of the expected sequence) — typed
// either way, within the bound, at every rank count.
func TestDropFaultFailsTyped(t *testing.T) {
	for _, ranks := range faultRanks {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			r, e, ft := faultEngine(t, ranks,
				fault.Rule{Src: 0, Dst: 1, Ordinal: -1, Action: fault.Drop, Count: 1})
			err := stepUntilError(t, r, e, 3)
			if !errors.Is(err, dist.ErrHaloTimeout) && !errors.Is(err, dist.ErrHaloCorrupt) {
				t.Fatalf("err = %v, want ErrHaloTimeout or ErrHaloCorrupt", err)
			}
			if ft.Injected() == 0 {
				t.Fatal("no fault was injected")
			}
			requireEngineFailed(t, r, e)
		})
	}
}

// TestTruncateFaultFailsCorrupt: a truncated message fails the frame
// check (length mismatch) with ErrHaloCorrupt.
func TestTruncateFaultFailsCorrupt(t *testing.T) {
	for _, ranks := range faultRanks {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			r, e, _ := faultEngine(t, ranks,
				fault.Rule{Src: 0, Dst: 1, Ordinal: -1, Action: fault.Truncate, Keep: 1, Count: 1})
			err := stepUntilError(t, r, e, 3)
			if !errors.Is(err, dist.ErrHaloCorrupt) {
				t.Fatalf("err = %v, want ErrHaloCorrupt", err)
			}
			requireEngineFailed(t, r, e)
		})
	}
}

// TestDuplicateFaultFailsCorrupt: a duplicated message leaves an extra
// frame in the pair's stream; some later receive observes a stale
// sequence tag and fails typed.
func TestDuplicateFaultFailsCorrupt(t *testing.T) {
	for _, ranks := range faultRanks {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			r, e, _ := faultEngine(t, ranks,
				fault.Rule{Src: 0, Dst: 1, Ordinal: 0, Action: fault.Duplicate, Count: 1})
			err := stepUntilError(t, r, e, 3)
			if !errors.Is(err, dist.ErrHaloCorrupt) && !errors.Is(err, dist.ErrHaloTimeout) {
				t.Fatalf("err = %v, want ErrHaloCorrupt (or a timeout once the stream skews)", err)
			}
			requireEngineFailed(t, r, e)
		})
	}
}

// TestFailSendFaultFailsEngine: a synchronous send failure fails the
// sending rank's step with the injected error and the engine with it.
func TestFailSendFaultFailsEngine(t *testing.T) {
	for _, ranks := range faultRanks {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			r, e, _ := faultEngine(t, ranks,
				fault.Rule{Src: 1, Dst: -1, Ordinal: -1, Action: fault.FailSend, Count: 1})
			err := stepUntilError(t, r, e, 3)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			requireEngineFailed(t, r, e)
		})
	}
}

// TestStalledRankTimesOut: a rank whose sends all vanish looks hung to
// its peers; the halo timeout converts the hang into ErrHaloTimeout.
func TestStalledRankTimesOut(t *testing.T) {
	for _, ranks := range faultRanks {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			r, e, ft := faultEngine(t, ranks)
			ft.StallRank(1)
			err := stepUntilError(t, r, e, 3)
			if !errors.Is(err, dist.ErrHaloTimeout) {
				t.Fatalf("err = %v, want ErrHaloTimeout", err)
			}
			if n := e.HaloTimeouts(); n < 1 {
				t.Fatalf("halo timeout counter = %d, want >= 1", n)
			}
			requireEngineFailed(t, r, e)
		})
	}
}

// TestKernelPanicFailsEngine: a panic injected into one rank's kernel
// is recovered into a step error, fails the engine permanently, and
// later submissions reject fast with ErrRankFailed (satellite b).
func TestKernelPanicFailsEngine(t *testing.T) {
	for _, ranks := range faultRanks {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			r, e, _ := faultEngine(t, ranks)
			p := &fault.Panicker{At: 1, FailAttempts: 1}
			p.BeginAttempt()
			r.scale.Kernel = p.Wrap(r.scale.Kernel)
			err := runBounded(t, func() error { return e.Run(context.Background(), r.scale) })
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want the recovered panic", err)
			}
			requireEngineFailed(t, r, e)
		})
	}
}
