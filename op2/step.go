package op2

import (
	"context"
	"fmt"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
	"op2hpx/internal/hpx"
)

// Step is a declarative group of parallel loops issued as one unit — the
// loops of one timestep, declared once before the time loop and run
// every iteration:
//
//	step := rt.Step("iter").
//		Then(saveLoop).
//		Then(adtLoop).Then(resLoop).Then(bresLoop).Then(updateLoop)
//	for i := 0; i < iters; i++ {
//		if err := step.Run(ctx); err != nil { ... }
//	}
//
// Declaring the whole timestep hands the runtime the loops' dataflow DAG
// up front (per-dat read/write classification, cross-loop dependency
// edges) instead of letting it infer dependencies one loop at a time:
//
//   - Under the shared-memory Dataflow backend, Run and Async issue the
//     member loops eagerly from the precomputed DAG, so independent
//     loops interleave with no per-issue argument analysis and no global
//     barriers.
//   - On a distributed runtime (WithRanks), the engine coalesces the
//     read-halo exchanges of consecutive loops that import the same
//     dat's halo into one message per rank pair, and posts each exchange
//     as soon as the last loop writing its dats has run, so messages
//     travel while the loops in between compute — fewer halo messages
//     and more overlap than loop-at-a-time issue, while remaining
//     bitwise-identical to the serial backend. Increments need no
//     messages: each rank also executes the elements that increment its
//     owned targets (the exec halo) and applies them in place.
//
// Under Serial and ForkJoin the loops simply run in program order; a
// single loop's Run/Async is equivalent to a one-loop Step (and on
// distributed runtimes is executed as one internally). A Step may be run
// any number of times; its plan is compiled once and cached. Building
// (Then) is not safe for concurrent use; Run/Async follow the backend's
// issuing contract (a single issuing goroutine under Dataflow and on
// distributed runtimes).
type Step struct {
	rt    *Runtime
	name  string
	loops []*Loop

	compiled bool
	plan     *core.StepPlan   // shared-memory plan (and the fusion grouping)
	dh       *dist.StepHandle // pinned distributed plan (WithRanks runtimes)
	raw      []*core.Loop
	err      error
	iss      issuer // issue-ahead cap (WithMaxInFlightSteps)
}

// Step starts a new, empty step. Append loops with Then.
func (rt *Runtime) Step(name string) *Step {
	return &Step{rt: rt, name: name}
}

// Then appends a loop declared on the same runtime and returns the step
// for chaining. The same loop may appear multiple times (sub-iterated
// kernels). Appending invalidates the compiled plan; the next Run or
// Async recompiles.
func (s *Step) Then(lp *Loop) *Step {
	s.loops = append(s.loops, lp)
	s.compiled, s.plan, s.dh, s.raw, s.err = false, nil, nil, nil, nil
	return s
}

// Name returns the step's name.
func (s *Step) Name() string { return s.name }

// Len reports the number of loops in the step.
func (s *Step) Len() int { return len(s.loops) }

// Deps returns the intra-step dependency edges of loop i — the indices
// of the earlier loops it must wait for per the step's dataflow DAG —
// or nil if the step does not compile. It compiles the step if needed.
func (s *Step) Deps(i int) []int {
	if err := s.compile(); err != nil {
		return nil
	}
	if i < 0 || i >= len(s.loops) {
		return nil
	}
	return s.plan.Deps(i)
}

// compile validates the step and builds the shared-memory plan once.
func (s *Step) compile() error {
	if s.compiled {
		return s.err
	}
	s.compiled = true
	if len(s.loops) == 0 {
		s.err = wrapValidation(fmt.Errorf("step %q has no loops (use Then)", s.name))
		return s.err
	}
	s.raw = make([]*core.Loop, len(s.loops))
	for i, lp := range s.loops {
		if lp == nil {
			s.err = wrapValidation(fmt.Errorf("step %q: loop %d is nil", s.name, i))
			return s.err
		}
		if lp.rt != s.rt {
			s.err = wrapValidation(fmt.Errorf("step %q: loop %q belongs to a different runtime", s.name, lp.Name()))
			return s.err
		}
		if err := lp.validate(); err != nil {
			s.err = err
			return s.err
		}
		s.raw[i] = &lp.l
	}
	plan, err := core.BuildStepPlan(s.name, s.raw)
	if err != nil {
		s.err = wrapValidation(err)
		return s.err
	}
	s.plan = plan
	s.err = nil
	return nil
}

// Run executes the whole step and returns once every member loop (and,
// on distributed runtimes, every halo exchange and reduction fold) has
// completed. It returns the first error of any
// member loop in program order.
func (s *Step) Run(ctx context.Context) error {
	if err := s.compile(); err != nil {
		return err
	}
	if s.rt.eng != nil {
		if h := s.distHandle(); h != nil {
			return classify(s.rt.eng.RunStepHandle(ctx, h))
		}
		return classify(s.rt.eng.RunStep(ctx, s.name, s.raw))
	}
	return classify(s.rt.ex.RunStepCtx(ctx, s.plan))
}

// distHandle lazily compiles the step's distributed plan handle, so
// steady-state submissions skip the engine's per-invocation structural
// key construction and re-validation. Compile errors fall back to the
// legacy path, which reports (and fence-records) them identically.
func (s *Step) distHandle() *dist.StepHandle {
	if s.dh == nil {
		if h, err := s.rt.eng.CompileStep(s.name, s.raw); err == nil {
			s.dh = h
		}
	}
	return s.dh
}

// Async issues the whole step asynchronously and returns one Future for
// it: the future resolves when every member loop has completed and
// carries the first error of any member — unlike a chain of per-loop
// futures, an error anywhere in the step surfaces on this future
// directly (and, on distributed runtimes, waiting it marks the error
// delivered so the next Sync does not report it again). Steps pipeline:
// issuing the next iteration's step before waiting the previous one
// keeps every rank busy, with Sync or Fence as the only barrier.
func (s *Step) Async(ctx context.Context) *Future {
	if err := s.compile(); err != nil {
		return &Future{f: hpx.MakeErr[struct{}](err)}
	}
	lim := s.rt.maxInFlight
	s.iss.reserve(lim)
	var f core.Future
	var ack func(error)
	if s.rt.eng != nil {
		ack = s.rt.eng.AckError
		if h := s.distHandle(); h != nil {
			f = s.rt.eng.RunStepHandleAsync(ctx, h)
		} else {
			f = s.rt.eng.RunStepAsync(ctx, s.name, s.raw)
		}
	} else {
		f = s.rt.ex.RunStepAsyncCtx(ctx, s.plan)
	}
	s.iss.record(f, lim)
	return wrap(f, ack)
}

// FusedGroups reports how many multi-loop fused groups the step's
// shared-memory plan formed: runs of adjacent direct loops over the
// same set that the Dataflow backend executes as one pass over the
// iteration range. It compiles the step if needed and reports 0 when
// the step does not compile (distributed execution plans fusion-free:
// rank workers already run whole steps).
func (s *Step) FusedGroups() int {
	if err := s.compile(); err != nil {
		return 0
	}
	return s.plan.FusedGroups()
}

// FusedLoops reports how many of the step's loop occurrences execute
// inside fused groups under the Dataflow backend (see FusedGroups).
func (s *Step) FusedLoops() int {
	if err := s.compile(); err != nil {
		return 0
	}
	return s.plan.FusedLoops()
}

// Fence blocks until every loop and step submitted to a distributed
// runtime has completed — halo exchanges and reduction folds
// included — and returns the first error no caller has observed yet
// (the runtime-level counterpart of Dat.Sync). On shared-memory
// runtimes outstanding work is tracked per dat and per global, so Fence
// is a no-op there: use Dat.Sync / Global.Sync.
func (rt *Runtime) Fence() error {
	if rt.eng == nil {
		return nil
	}
	return classify(rt.eng.Fence())
}

// HaloMessagesSent reports the total read-halo messages a distributed
// runtime has posted since creation, and 0 for
// shared-memory runtimes. Comparing the delta per iteration between
// Step issue and loop-at-a-time issue is how the batching win is
// measured (cmd/experiments -exp step).
func (rt *Runtime) HaloMessagesSent() int64 {
	if rt.eng == nil {
		return 0
	}
	return rt.eng.MessagesSent()
}

// HaloBufferStats reports a distributed runtime's message-buffer pool
// counters: how many buffers were ever allocated (pool misses) and how
// many were requested in total. Each step plan reserves its traffic's
// buffers when it compiles, so allocated stays flat from the first
// timestep while requested grows — every halo message packs into a
// pooled buffer. Shared-memory runtimes report zeros.
func (rt *Runtime) HaloBufferStats() (allocated, requested int64) {
	if rt.eng == nil {
		return 0, 0
	}
	st := rt.eng.BufferStats()
	return st.Allocated, st.Requested
}
