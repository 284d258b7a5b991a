package core

import (
	"context"
	"fmt"
	"sync"
)

// StepPlan is the dataflow DAG of one timestep declared as a unit: an
// ordered list of loops with a first-class per-dat read/write
// classification and the cross-loop dependency edges derived from it.
// Where issuing loops one at a time lets the runtime discover the DAG
// only implicitly (each loop consults the version chains of the
// resources it touches at issue time), a StepPlan computes the whole
// graph once — which is what lets the shared-memory dataflow backend
// interleave independent loops eagerly with no per-issue argument
// walking, and what the distributed engine consumes to batch halo
// exchanges and post them early across loop boundaries.
//
// A StepPlan is immutable once built and may be executed any number of
// times; the kernels travel with the loops, so re-attaching a Kernel to
// a member loop between runs is observed (a re-attached Body needs
// Loop.InvalidateCompiled, which op2.Loop.Body calls).
type StepPlan struct {
	Name  string
	Loops []*Loop

	// deps[i] lists the indices j < i of the loops that loop i must wait
	// for: the nearest writer of every resource loop i reads (RAW) and
	// the nearest writer plus the readers-since of every resource loop i
	// writes (WAR, WAW), deduplicated.
	deps [][]int
	// res[i] is loop i's distinct resource list with the strongest access
	// seen — the precomputed form of what collectDeps derives per issue.
	res [][]stepRes
	// groups are the step's issue units under the Dataflow backend:
	// maximal runs of adjacent direct loops over the same set with
	// element-wise dependencies execute fused, as one pass over the
	// iteration range (see stepGroup); everything else issues one loop
	// per group. Each group issues as one pooled issue unit (see
	// issue.go). Serial and ForkJoin ignore the grouping and run the
	// loops in program order.
	groups []*stepGroup

	// issues pools the step's joins (see stepIssue): the step future
	// over its units' member futures. Steady-state step issue reuses
	// them instead of allocating a futures slice, a promise and a
	// completion goroutine per submission.
	issues sync.Pool
	held   *stepIssue // the latest join, held until the next issue
}

// stepRes is one distinct resource a loop touches: its version chain and
// the failure/record semantics of the loop's strongest access to it
// (mirroring collectDeps).
type stepRes struct {
	state  *versionState
	hard   bool
	writes bool
}

// BuildStepPlan validates the loops and computes the step's dataflow
// DAG. The loop list is one timestep in program order; the same *Loop
// may appear more than once (e.g. a sub-iterated kernel).
func BuildStepPlan(name string, loops []*Loop) (*StepPlan, error) {
	if len(loops) == 0 {
		return nil, fmt.Errorf("op2: step %q has no loops", name)
	}
	for i, l := range loops {
		if l == nil {
			return nil, fmt.Errorf("op2: step %q: loop %d is nil", name, i)
		}
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("op2: step %q: %w", name, err)
		}
	}
	sp := &StepPlan{
		Name:  name,
		Loops: loops,
		deps:  make([][]int, len(loops)),
		res:   make([][]stepRes, len(loops)),
	}

	// Per-resource chain state at plan time, mirroring versionState but
	// over step-local loop indices.
	type chain struct {
		lastWrite int // loop index, -1 if none
		readers   []int
	}
	chains := map[*versionState]*chain{}
	chainOf := func(st *versionState) *chain {
		c, ok := chains[st]
		if !ok {
			c = &chain{lastWrite: -1}
			chains[st] = c
		}
		return c
	}

	for i, l := range loops {
		// Distinct resources with the strongest access — the same
		// classification the per-loop issue path uses.
		resources := classifyResources(l.Args)
		sp.res[i] = resources

		// Cross-loop edges from the chain state.
		seen := map[int]bool{}
		edge := func(j int) {
			if j >= 0 && !seen[j] {
				seen[j] = true
				sp.deps[i] = append(sp.deps[i], j)
			}
		}
		for _, r := range resources {
			c := chainOf(r.state)
			edge(c.lastWrite)
			if r.writes {
				for _, j := range c.readers {
					edge(j)
				}
			}
		}
		for _, r := range resources {
			c := chainOf(r.state)
			if r.writes {
				c.lastWrite = i
				c.readers = c.readers[:0]
			} else {
				c.readers = append(c.readers, i)
			}
		}
	}
	sp.groups = buildStepGroups(sp)
	return sp, nil
}

// FusedGroups reports how many multi-loop fused groups the plan formed.
func (sp *StepPlan) FusedGroups() int {
	n := 0
	for _, g := range sp.groups {
		if g.fused() {
			n++
		}
	}
	return n
}

// FusedLoops reports how many of the step's loop occurrences execute
// inside multi-loop fused groups under the Dataflow backend.
func (sp *StepPlan) FusedLoops() int {
	n := 0
	for _, g := range sp.groups {
		if g.fused() {
			n += g.hi - g.lo
		}
	}
	return n
}

// Deps returns the intra-step dependency edges of loop i (indices of
// earlier loops it must wait for).
func (sp *StepPlan) Deps(i int) []int { return sp.deps[i] }

// RunStepCtx executes every loop of the step. Under the Serial and
// ForkJoin backends the loops run in program order, each with its
// implicit barrier. Under Dataflow the step is issued asynchronously —
// independent loops interleave eagerly per the step's DAG — and RunStepCtx
// waits for completion, returning the first error in program order.
func (ex *Executor) RunStepCtx(ctx context.Context, sp *StepPlan) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if ex.cfg.Backend != Dataflow {
		ex.stepsRun.Add(1)
		for _, l := range sp.Loops {
			if err := ex.executeCtx(ctx, l); err != nil {
				return err
			}
		}
		return nil
	}
	return ex.RunStepAsyncCtx(ctx, sp).Wait()
}

// RunStepAsyncCtx issues every loop of the step asynchronously and
// returns one future for the whole step: it resolves once every member
// loop has resolved, and carries the first error of any member loop in
// program order — so an error anywhere in the step surfaces on the
// step's own future, not only through the version chains. The
// single-issuing-goroutine contract of RunAsyncCtx applies: the step (and
// any surrounding loops) must be issued from one goroutine. Like
// RunAsyncCtx, the returned Future is pooled — it reads its own verdict
// until the step's next-but-one issue — and steady-state issue of a
// compiled step performs no per-member future, goroutine or slice
// allocations (see stepIssue in issue.go).
func (ex *Executor) RunStepAsyncCtx(ctx context.Context, sp *StepPlan) Future {
	if ctx == nil {
		ctx = context.Background()
	}
	ex.stepsRun.Add(1)
	return ex.issueStep(ctx, sp)
}
