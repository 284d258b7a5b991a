package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"op2hpx/internal/obs"
)

// maxFuse caps a fused group's member count so per-member failure state
// fits one atomic word. No real timestep approaches it.
const maxFuse = 64

// stepGroup is one issue unit of a StepPlan under the Dataflow backend:
// either a single loop, or a maximal run of consecutive direct loops
// over the same iteration set whose mutual dependencies are provably
// element-wise. A single-loop group issues as its loop's one-member unit;
// a multi-loop group issues as one k-member unit pooled on the group
// (see issue.go) and executes as ONE walk of the set's one-color plan —
// each block runs every member body back to back — cutting one full
// memory sweep and one issue (dependency gather, goroutine) per fused
// member.
//
// Fusion preserves results bitwise. Element e of a later member depends
// only on element e of earlier members (that is what the join rules
// prove), so running members per block instead of per loop reorders
// only independent work; and every member keeps its own block-indexed
// reduction table over the plan's blocks, the grid it would use
// unfused, so its fold is unchanged.
// Failure semantics are preserved too: every member keeps its own
// future, a member that panics is skipped for the rest of the pass,
// members that hard-depend on it fail with a dependency error, and
// independent or overwriting members run to completion — exactly the
// behaviour of per-loop issue, including a trailing direct Write loop
// healing the chain. Serial and ForkJoin execution of a step stays
// strictly program-order (RunStepCtx), and the distributed engine plans
// steps itself — fusion changes nothing outside the shared-memory
// dataflow backend.
type stepGroup struct {
	lo, hi int       // occurrence range [lo, hi) of the step's loops
	res    []stepRes // union resource classification (strongest access)
	name   string    // fused(a+b+...) for multi-loop groups

	// hardDeps[j] is the bitmask of earlier members (bit m, member
	// indices relative to lo) member j hard-depends on: m writes a
	// resource j observes. If such an m fails, j fails with a dependency
	// error instead of executing — the fused mirror of waitDeps' hard
	// propagation.
	hardDeps []uint64

	runs   sync.Pool // *fusedRun; multi-loop groups only
	issues issuePool // the group's k-member issue units (see issue.go)

	// hist caches the group's op2_fused_group_seconds handle — one
	// atomic load per pass once registered (see stepGroup.histFor).
	hist atomic.Pointer[obs.Histogram]

	// colorChunks holds the pass's calibrated chunk sizes (see
	// blockWalk.walk); nil until its first parallel execution.
	colorChunks atomic.Pointer[colorChunkSizes]
}

func (g *stepGroup) fused() bool { return g.hi-g.lo > 1 }

// groupUse aggregates how a group (or candidate loop) touches one
// resource: through writes, through maps, as a global, as a read.
type groupUse struct {
	writes   bool
	indirect bool
	global   bool
	reads    bool
}

// loopUses folds l's arguments into dst, one entry per distinct
// resource version chain.
func loopUses(dst map[*versionState]groupUse, l *Loop) {
	for i := range l.Args {
		a := &l.Args[i]
		var st *versionState
		var u groupUse
		if a.gbl != nil {
			st = &a.gbl.state
			u = groupUse{global: true, writes: a.acc.writes(), reads: a.acc == Read}
		} else {
			st = &a.dat.state
			u = groupUse{writes: a.acc.writes(), reads: a.acc != Write, indirect: a.m != nil}
		}
		prev := dst[st]
		dst[st] = groupUse{
			writes:   prev.writes || u.writes,
			indirect: prev.indirect || u.indirect,
			global:   prev.global || u.global,
			reads:    prev.reads || u.reads,
		}
	}
}

// fusableShape reports whether a loop can participate in fusion at all:
// no indirect modifying access (its plan is a single color, so chunks
// are free of cross-element write conflicts).
func fusableShape(l *Loop) bool { return len(conflictMaps(l.Args)) == 0 }

// canJoin decides whether l may join a group with the accumulated uses:
// every dependency between l and the group must be element-wise.
//
//   - A dat dependency (either side writes) is element-wise only when
//     both sides access the dat directly — direct args live on the fused
//     set, so element e touches exactly element e. Any indirect access
//     on either side of a dependency reaches across elements (a chunk of
//     a later member could observe an element an earlier member has not
//     processed yet, or overwrite one it still needs), so it blocks.
//   - A global reduced (written) by the group and READ by l blocks:
//     reductions apply at the end of the fused pass, so the read would
//     observe the stale value instead of the fold. Reduce-after-read and
//     reduce-after-reduce are fine — each member folds its own scratch
//     table and the applies happen in member order at pass end, exactly
//     as the unfused loops would have applied them.
func canJoin(group map[*versionState]groupUse, l *Loop) bool {
	ju := map[*versionState]groupUse{}
	loopUses(ju, l)
	for st, u := range ju {
		gu, ok := group[st]
		if !ok {
			continue
		}
		if !(gu.writes || u.writes) {
			continue // read-read: no dependency
		}
		if gu.global {
			if gu.writes && u.reads {
				return false
			}
			continue
		}
		if gu.indirect || u.indirect {
			return false
		}
	}
	return true
}

// buildStepGroups partitions the step's occurrences into issue groups:
// maximal fusable runs, single-loop groups otherwise.
func buildStepGroups(sp *StepPlan) []*stepGroup {
	var groups []*stepGroup
	n := len(sp.Loops)
	for lo := 0; lo < n; {
		l := sp.Loops[lo]
		hi := lo + 1
		if fusableShape(l) {
			use := map[*versionState]groupUse{}
			loopUses(use, l)
			for hi < n && hi-lo < maxFuse {
				next := sp.Loops[hi]
				if next.Set != l.Set || !fusableShape(next) || !canJoin(use, next) {
					break
				}
				loopUses(use, next)
				hi++
			}
		}
		g := &stepGroup{lo: lo, hi: hi}
		if g.fused() {
			names := make([]string, 0, hi-lo)
			var args []Arg
			for o := lo; o < hi; o++ {
				names = append(names, sp.Loops[o].Name)
				args = append(args, sp.Loops[o].Args...)
			}
			g.name = "fused(" + strings.Join(names, "+") + ")"
			g.res = classifyResources(args)
			g.hardDeps = buildHardDeps(sp, lo, hi)
		} else {
			g.name = l.Name
			g.res = sp.res[lo]
		}
		groups = append(groups, g)
		lo = hi
	}
	return groups
}

// buildHardDeps computes, for each member of the group [lo, hi), the
// bitmask of earlier members it hard-depends on: member m writes a
// resource member j accesses hard (any observing access — reads, RW,
// increments; a direct full overwrite is ordering-only and survives a
// predecessor's failure, which is what lets it heal the chain).
func buildHardDeps(sp *StepPlan, lo, hi int) []uint64 {
	k := hi - lo
	deps := make([]uint64, k)
	for j := 1; j < k; j++ {
		for _, rj := range sp.res[lo+j] {
			if !rj.hard {
				continue
			}
			for m := 0; m < j; m++ {
				for _, rm := range sp.res[lo+m] {
					if rm.state == rj.state && rm.writes {
						deps[j] |= 1 << uint(m)
					}
				}
			}
		}
	}
	return deps
}

// fusedRun is the pooled per-invocation state of a fused group: the
// borrowed member loopRuns (each carrying its own body, prefetcher and
// reduction table), the block walker that drives them over the set's
// one-color plan, and the per-member failure state.
type fusedRun struct {
	g       *stepGroup
	members []*loopRun

	failed atomic.Uint64 // bit j: member j has failed
	errsMu sync.Mutex
	errs   []error // first error per member

	blockWalk
}

// markFailed records member j's first error and flags it failed.
func (fr *fusedRun) markFailed(j int, err error) {
	fr.errsMu.Lock()
	if fr.errs[j] == nil {
		fr.errs[j] = err
		fr.failed.Or(1 << uint(j))
	}
	fr.errsMu.Unlock()
}

// depError builds member j's dependency failure from the first failed
// member it hard-depends on.
func (fr *fusedRun) depError(j int, mask uint64) error {
	name := fr.g.nameOf(fr, j)
	fr.errsMu.Lock()
	defer fr.errsMu.Unlock()
	for m := 0; m < j; m++ {
		if mask&fr.g.hardDeps[j]&(1<<uint(m)) != 0 && fr.errs[m] != nil {
			return fmt.Errorf("op2: loop %q dependency failed: %w", name, fr.errs[m])
		}
	}
	return fmt.Errorf("op2: loop %q dependency failed within fused group", name)
}

// nameOf returns member j's loop name.
func (g *stepGroup) nameOf(fr *fusedRun, j int) string {
	return fr.members[j].cl.l.Name
}

// runMembers executes every live member's body over [lo, hi) with the
// given reduction slot (the plan block the range starts). A member that
// panics is marked failed and skipped for the rest of the pass; members
// hard-depending on a failed member fail with a dependency error;
// independent and overwriting members keep running — mirroring
// per-loop issue, where only hard dependencies propagate failure.
func (fr *fusedRun) runMembers(slot, lo, hi int) {
	for j, lr := range fr.members {
		mask := fr.failed.Load()
		bit := uint64(1) << uint(j)
		if mask&bit != 0 {
			continue
		}
		if fr.g.hardDeps[j]&mask != 0 {
			fr.markFailed(j, fr.depError(j, mask))
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					fr.markFailed(j, fmt.Errorf("op2: loop %q panicked: %v", lr.cl.l.Name, r))
				}
			}()
			lr.runRange(slot, lo, hi)
		}()
	}
}

// finish folds every successful member's reductions over the shared
// block grid, in member (program) order.
func (fr *fusedRun) finish() {
	mask := fr.failed.Load()
	for j, lr := range fr.members {
		if mask&(1<<uint(j)) != 0 {
			continue
		}
		lr.finish()
	}
}

// getRun borrows a pooled fused run with every member's loopRun.
func (g *stepGroup) getRun(ex *Executor, sp *StepPlan, ctx context.Context) (*fusedRun, error) {
	// Compile every member first so borrowing cannot fail halfway.
	for o := g.lo; o < g.hi; o++ {
		if _, err := ex.compiled(sp.Loops[o]); err != nil {
			return nil, err
		}
	}
	fr, _ := g.runs.Get().(*fusedRun)
	if fr == nil {
		fr = &fusedRun{g: g, errs: make([]error, g.hi-g.lo)}
		fr.bind(fr.runMembers)
	}
	fr.region.ctx = ctx
	fr.failed.Store(0)
	clear(fr.errs)
	fr.members = fr.members[:0]
	merge := true
	for o := g.lo; o < g.hi; o++ {
		cl, _ := ex.compiled(sp.Loops[o]) // cached above
		fr.members = append(fr.members, cl.getRun(ctx))
		merge = merge && cl.sl.size == 0
	}
	// Members share their set's one-color plan: the plan cache keys it
	// by set and block size alone.
	fr.plan, fr.merge = fr.members[0].cl.plan, merge
	return fr, nil
}

// putRun returns the fused run (and the borrowed member runs) to their
// pools.
func (g *stepGroup) putRun(fr *fusedRun) {
	for _, lr := range fr.members {
		lr.cl.putRun(lr)
	}
	fr.members = fr.members[:0]
	fr.region.ctx = nil
	g.runs.Put(fr)
}

// executeFusedCtx runs a multi-loop group as one walk of its set's plan
// — each block executing every member body back to back — and writes
// one verdict per member into errs (nil for members that completed).
func (ex *Executor) executeFusedCtx(ctx context.Context, sp *StepPlan, g *stepGroup, errs []error) {
	k := g.hi - g.lo
	clear(errs)
	if cerr := ctx.Err(); cerr != nil {
		failAll(errs, fmt.Errorf("op2: %s canceled: %w", g.name, cerr))
		return
	}
	set := sp.Loops[g.lo].Set
	var profStart time.Time
	obsOn := ex.profiler != nil || ex.metrics != nil || ex.tracer != nil
	if obsOn {
		profStart = time.Now()
	}
	fr, err := g.getRun(ex, sp, ctx)
	if err != nil {
		failAll(errs, err)
		return
	}
	defer g.putRun(fr)
	ex.fusedGroupsRun.Add(1)
	ex.fusedLoopsRun.Add(int64(k))
	var regionErr error
	if set.size > 0 {
		regionErr = fr.walk(ctx, ex, &g.colorChunks)
	}
	if regionErr != nil {
		failAll(errs, fmt.Errorf("op2: %s: %w", g.name, regionErr))
		return
	}
	// Late dependency propagation: a member whose hard predecessor failed
	// in the final blocks may never have been revisited. The mask is
	// reloaded per member so a failure marked here cascades to its own
	// hard dependents later in the (backward-edged) member order.
	for j := 0; j < k; j++ {
		mask := fr.failed.Load()
		if mask&(1<<uint(j)) == 0 && g.hardDeps[j]&mask != 0 {
			fr.markFailed(j, fr.depError(j, mask))
		}
	}
	fr.finish()
	copy(errs, fr.errs)
	if obsOn && fr.failed.Load() == 0 {
		d := time.Since(profStart)
		if ex.profiler != nil {
			ex.profiler.record(g.name, set.Name(), d, fr.plan)
		}
		if ex.metrics != nil {
			g.histFor(ex.metrics).ObserveDuration(d)
		}
		if ex.tracer != nil {
			ex.tracer.Record(g.name, "fused", 0, profStart, d)
		}
	}
}

// failAll gives every member without a verdict yet the error err.
func failAll(errs []error, err error) {
	for j := range errs {
		if errs[j] == nil {
			errs[j] = err
		}
	}
}
