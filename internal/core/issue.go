package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"op2hpx/internal/hpx"
)

// This file is the pooled asynchronous issue path (§IV, Figs. 8 and 11):
// every dataflow issue gathers its resources' chain futures, waits on
// them, and publishes its own future as the resources' new version. One
// mechanism serves every shape. An issue unit is 1…64 loops that issue
// together: a loop issued alone (RunAsyncCtx, the RunCtx failure path, a
// non-fused step group) is a one-member unit pooled on its CompiledLoop,
// and a fused step group is a k-member unit pooled on its stepGroup. A
// unit gathers and subscribes its dependencies once, through intrusive
// continuations on the predecessors' wait-lists, records each member's
// own chain future as that member's resources' new version, and returns
// to its pool once it has resolved and its chain entries are displaced —
// steady-state Async issue allocates nothing (see
// TestSteadyStateAsyncLoopZeroAlloc).
//
// Lifecycle and safety:
//
//   - A unit has one reference count: one reference per version-chain
//     record of every member (released when a later record, a gather or
//     a fence displaces it), one for the in-flight issue itself, one for
//     a cancellation monitor, and — for the unit of a loop's latest
//     RunAsyncCtx — one held until that loop's next RunAsyncCtx (see
//     CompiledLoop.hold). User handles hold none: nothing the caller
//     keeps pins a synced pipeline. The unit recycles only at zero
//     references AND with every member's chain resolved successfully — a
//     unit with a failed member is dropped, so its handles keep their
//     error and a stale reference (a host fence that copied a version
//     chain, a handle kept past its issuer's next-but-one issue) can never
//     miss one: it observes either the settled success verdict or blocks
//     until the unit's next cycle resolves (over-waiting is safe; missing
//     an error would not be).
//   - All acquisition, gathering, subscription and recording happens on
//     the single issuing goroutine (the same contract that makes program
//     order define the DAG). A unit is acquired once, before it gathers,
//     and subscribes before it records: a gathered predecessor that a
//     record displaces and recycles is already subscribed, and no later
//     acquisition can hand it back to this unit.
//   - A member's chain future resolves strictly after every dependency
//     of its unit has fired. Cancellation fails the *user* futures
//     promptly (via the monitor goroutine below) while the *chain*
//     futures keep draining, so a successor write treating a resolved
//     chain as "quiet" can never race a predecessor still executing.
//
// A step (stepIssue) is the join over its units' member user futures: it
// subscribes to every one at issue and keeps only their latched verdicts,
// so its members recycle independently of it.

// Future is the completion handle of an asynchronously issued loop or
// step. A handle over a pooled state reads its own verdict until its
// loop's or step's next-but-one issue; after that the state may have been
// recycled for a newer issue, which a later Wait then observes — only a
// successful issue is ever recycled, so a failed one keeps its error.
// *hpx.Future values satisfy Future too, which is what the
// validation-error paths return.
type Future interface {
	Wait() error
	Ready() bool
	Done() <-chan struct{}
}

// settledOK reports whether l resolved successfully — such a dependency
// imposes no constraint and its chain entry can be dropped for good.
func settledOK(l *hpx.LCO) bool { return l.Ready() && l.Wait() == nil }

// ---------------------------------------------------------------------------
// Dependency tracking

// depOwner receives the one callback of a depWaiter: every subscribed
// dependency has fired (or was already resolved).
type depOwner interface{ depsReady() }

// depNode is one pooled dependency subscription: an intrusive
// continuation plus the latched verdict of its dependency. Nodes are
// created once per slot and reused across cycles; the Fire closure is
// bound at creation.
type depNode struct {
	c   hpx.Continuation
	dw  *depWaiter
	err error
}

// depWaiter tracks the outstanding dependencies of one issue through
// intrusive continuations. begin/await/finish run on the issuing
// goroutine; fired callbacks run on resolver goroutines. The guard
// reference taken by begin guarantees depsReady cannot fire before
// subscription is complete — finish releases it, after which the owner
// callback runs on whichever goroutine resolves the last dependency (or
// inline on the issuing goroutine when everything was already settled).
type depWaiter struct {
	remaining atomic.Int32
	nodes     []*depNode
	nsub      int
	nhard     int
	owner     depOwner
}

//op2:noalloc
func (dw *depWaiter) begin() {
	dw.nsub = 0
	dw.nhard = 0
	dw.remaining.Store(1) // subscription guard
}

// node returns the next pooled subscription slot, growing the node pool
// on first use of a deeper dependency count.
//
//op2:noalloc
func (dw *depWaiter) node() *depNode {
	//op2:coldpath first use of a deeper dependency count grows the node pool; steady state reuses it
	if dw.nsub == len(dw.nodes) {
		n := &depNode{dw: dw}
		n.c.Fire = n.fire
		dw.nodes = append(dw.nodes, n)
	}
	n := dw.nodes[dw.nsub]
	dw.nsub++
	n.err = nil
	return n
}

//op2:noalloc
func (n *depNode) fire(err error) {
	n.err = err
	n.dw.fired()
}

//op2:noalloc
func (dw *depWaiter) fired() {
	if dw.remaining.Add(-1) == 0 {
		dw.owner.depsReady()
	}
}

// await links one continuation on l; the verdict of an already-resolved
// l is latched inline.
//
//op2:noalloc
func (dw *depWaiter) await(l *hpx.LCO) {
	n := dw.node()
	dw.remaining.Add(1)
	if !l.Subscribe(&n.c) {
		n.err = l.Wait() // resolved: latch the verdict, no blocking
		dw.remaining.Add(-1)
	}
}

// finish releases the subscription guard; if every dependency already
// fired, depsReady runs inline on the issuing goroutine.
//
//op2:noalloc
func (dw *depWaiter) finish() { dw.fired() }

// firstHardErr returns the first hard dependency failure in input
// (program) order — the same verdict waitDeps derives by waiting the
// ordering list first and the hard list second.
//
//op2:noalloc
func (dw *depWaiter) firstHardErr() error {
	for _, n := range dw.nodes[:dw.nhard] {
		if n.err != nil {
			return n.err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Handles

// chainHandle is a member's chain future: the entry recorded as its
// resources' new version. Its references are counted on the owning unit.
type chainHandle struct {
	lco hpx.LCO
	is  *issueState
}

//op2:noalloc
func (h *chainHandle) Wait() error { return h.lco.Wait() }
func (h *chainHandle) Ready() bool { return h.lco.Ready() }

// release drops the reference of one displaced or compacted chain entry;
// a nil handle (an empty chain slot) is a no-op.
//
//op2:noalloc
func (h *chainHandle) release() {
	if h != nil {
		h.is.release()
	}
}

// userHandle is the caller-facing completion future of a pooled issue.
// It lives as long as its pooled state and holds no reference on it.
type userHandle struct {
	lco    hpx.LCO
	facade any // see Facade
}

//op2:noalloc
func (h *userHandle) Wait() error           { return h.lco.Wait() }
func (h *userHandle) Ready() bool           { return h.lco.Ready() }
func (h *userHandle) Done() <-chan struct{} { return h.lco.Done() }

// Facade is where a facade keeps the one wrapper it vends over this
// handle: the handle comes back with every recycle of its state, so the
// wrapper is built on the first issue and reused for the state's life.
// Issuing goroutine only.
//
//op2:noalloc
func (h *userHandle) Facade() *any { return &h.facade }

// ---------------------------------------------------------------------------
// Issue units

// issuePool holds issue units between cycles — on a CompiledLoop for its
// one-member units, on a stepGroup for its fused units — together with
// the dependency gather buffers those units share. Gathering runs on the
// issuing goroutine only and a unit is done with the buffers once it has
// subscribed, so one pair per pool serves every unit, and no pooled unit
// keeps its predecessors reachable.
type issuePool struct {
	sync.Pool
	hard, ordering []*chainHandle
}

// gather collects the chain futures the version chains of res require
// into the pool's buffers, split into hard and ordering-only
// dependencies (see classifyResources) — zero allocations once the
// buffers have grown to the steady-state dependency count.
//
//op2:noalloc
func (p *issuePool) gather(res []stepRes) (hard, ordering []*chainHandle) {
	p.hard, p.ordering = p.hard[:0], p.ordering[:0]
	for _, r := range res {
		acc := Read
		if r.writes {
			acc = RW
		}
		if r.hard {
			p.hard = r.state.appendDependencies(acc, p.hard)
		} else {
			p.ordering = r.state.appendDependencies(acc, p.ordering)
		}
	}
	return p.hard, p.ordering
}

// issueMember is one loop of an issue unit. It keeps its own chain
// future (recorded as its own resources' new version), its own user
// future and its own abort verdict, exactly as if it issued alone.
type issueMember struct {
	cl       *CompiledLoop
	chain    chainHandle
	user     userHandle
	abortErr error // written before issueState.aborted is set
}

// issueState is the pooled state of one issue unit: its members, one
// dependency tracker, one cancellation monitor and one reference count.
// See the file comment for the lifecycle.
type issueState struct {
	pool *issuePool // the CompiledLoop's or the stepGroup's
	sp   *StepPlan  // fused units only
	g    *stepGroup // fused units only
	ctx  context.Context

	members []issueMember
	errs    []error // fused units: per-member verdicts of the fused pass

	refs atomic.Int32
	dw   depWaiter

	// aborted: do not execute; resolve every member with its abortErr
	// once the dependencies have drained. Set by the cancellation
	// monitor, by a pre-canceled context at issue time, and by the
	// synchronous RunCtx failure path.
	aborted atomic.Bool

	wake   chan struct{} // completion signal consumed by the monitor
	execFn func()        // cached: execute the unit and resolve
	monFn  func()        // cached: cancellation monitor
}

func newIssueState(pool *issuePool, k int) *issueState {
	is := &issueState{pool: pool, members: make([]issueMember, k), wake: make(chan struct{}, 1)}
	for i := range is.members {
		is.members[i].chain.is = is
	}
	is.dw.owner = is
	is.execFn = is.exec
	is.monFn = is.monitor
	return is
}

// rearm arms a pooled unit for a new cycle. Issuing-goroutine only.
//
//op2:noalloc
func (is *issueState) rearm(ctx context.Context) {
	select { // drain a stale wake from a cycle whose monitor never ran
	case <-is.wake:
	default:
	}
	is.ctx = ctx
	is.aborted.Store(false)
	for i := range is.members {
		m := &is.members[i]
		m.abortErr = nil
		m.chain.lco.ResetFresh()
		m.user.lco.ResetFresh()
	}
	is.refs.Store(1) // the in-flight issue itself
}

// acquireIssue borrows the loop's pooled one-member unit and arms it.
//
//op2:noalloc
func (cl *CompiledLoop) acquireIssue(ctx context.Context) *issueState {
	is, _ := cl.issues.Get().(*issueState)
	if is == nil {
		is = newIssueState(&cl.issues, 1)
		is.members[0].cl = cl
	}
	is.rearm(ctx)
	return is
}

// hold keeps the unit of the loop's latest RunAsyncCtx from recycling
// until the loop's next one, so a future waited before its loop's
// next-but-one issue reads its own verdict.
//
//op2:noalloc
func (cl *CompiledLoop) hold(is *issueState) {
	is.refs.Add(1)
	if cl.held != nil {
		cl.held.release()
	}
	cl.held = is
}

// acquireGroup borrows and arms the unit of step group g with every
// member compiled for ex: the loop's one-member unit for a single-loop
// group, the group's own unit for a fused one.
func (ex *Executor) acquireGroup(ctx context.Context, sp *StepPlan, g *stepGroup) (*issueState, error) {
	if !g.fused() {
		cl, err := ex.compiled(sp.Loops[g.lo])
		if err != nil {
			return nil, err
		}
		return cl.acquireIssue(ctx), nil
	}
	is, _ := g.issues.Get().(*issueState)
	if is == nil {
		is = newIssueState(&g.issues, g.hi-g.lo)
		is.sp, is.g = sp, g
		is.errs = make([]error, g.hi-g.lo)
	}
	for j := range is.members {
		cl, err := ex.compiled(sp.Loops[g.lo+j])
		if err != nil {
			g.issues.Put(is) // never armed: nothing references it
			return nil, err
		}
		is.members[j].cl = cl
	}
	is.rearm(ctx)
	return is, nil
}

// release drops one reference; at zero — which implies the cycle has
// resolved, since the issue reference is held until resolution — a unit
// whose members all settled OK returns to its pool.
//
//op2:noalloc
func (is *issueState) release() {
	if is.refs.Add(-1) != 0 {
		return
	}
	is.ctx = nil
	for i := range is.members {
		if !settledOK(&is.members[i].chain.lco) {
			return // a failed member: the unit is dropped, never reused
		}
	}
	is.pool.Put(is)
}

// issue gathers the unit's dependencies over res (the union of its
// members' resources), links their continuations, records every member's
// chain future as its resources' new version, and arms cancellation.
// Zero allocations in steady state.
//
//op2:noalloc
func (is *issueState) issue(res []stepRes) {
	is.subscribe(is.pool.gather(res))
	is.record()
	if is.ctx.Done() != nil {
		if err := is.ctx.Err(); err != nil {
			//op2:coldpath issuing on an already-canceled context aborts the cycle
			is.noteCancel(err)
		} else {
			is.refs.Add(1)
			go is.monFn()
		}
	}
	is.dw.finish()
}

// issueFailAfterDeps records the synchronous RunCtx failure path: the
// caller returns err directly, and this records a chain future that
// resolves with err only once every gathered dependency has fired — as a
// continuation, not a drain goroutine — so no successor can observe the
// resource quiet while a predecessor is still executing.
func (cl *CompiledLoop) issueFailAfterDeps(ctx context.Context, err error, hard, ordering []*chainHandle) {
	is := cl.acquireIssue(ctx)
	m := &is.members[0]
	m.abortErr = err
	is.aborted.Store(true)
	m.user.lco.Resolve(err)
	is.subscribe(hard, ordering)
	is.record()
	is.dw.finish()
}

// subscribe awaits the unit's hard dependencies, then its ordering-only
// ones (see firstHardErr).
//
//op2:noalloc
func (is *issueState) subscribe(hard, ordering []*chainHandle) {
	dw := &is.dw
	dw.begin()
	for _, h := range hard {
		dw.await(&h.lco)
	}
	dw.nhard = dw.nsub
	for _, h := range ordering {
		dw.await(&h.lco)
	}
}

// record installs every member's chain future as its resources' new
// version, one reference per record.
//
//op2:noalloc
func (is *issueState) record() {
	for i := range is.members {
		m := &is.members[i]
		is.refs.Add(int32(len(m.cl.res)))
		recordResources(m.cl.res, &m.chain)
	}
}

// noteCancel latches every member's abort verdict and fails its user
// future promptly; the chain futures are left to the dependency drain.
func (is *issueState) noteCancel(cerr error) {
	for i := range is.members {
		m := &is.members[i]
		m.abortErr = fmt.Errorf("op2: loop %q canceled: %w", m.cl.l.Name, cerr)
		m.user.lco.TryResolve(m.abortErr)
	}
	is.aborted.Store(true)
}

// monitor is the cancellation watcher of one cycle, spawned (via the
// cached closure, so the steady-state spawn allocates nothing) only for
// cancellable contexts. It holds a reference so the unit cannot recycle
// under it.
func (is *issueState) monitor() {
	select {
	case <-is.ctx.Done():
		is.noteCancel(is.ctx.Err())
	case <-is.wake:
	}
	is.release()
}

// depsReady runs once every dependency has fired: on the goroutine that
// resolved the last one, or inline on the issuing goroutine when all were
// settled. It is the single resolver of the chain futures, which is what
// guarantees a chain never resolves before the dependencies beneath it
// have drained.
//
//op2:noalloc
func (is *issueState) depsReady() {
	if is.aborted.Load() {
		for i := range is.members {
			is.settle(i, is.members[i].abortErr)
		}
		is.done()
		return
	}
	//op2:coldpath a failed hard dependency aborts the cycle; the error leaves the steady state anyway
	if err := is.dw.firstHardErr(); err != nil {
		for i := range is.members {
			is.settle(i, fmt.Errorf("op2: loop %q dependency failed: %w", is.members[i].cl.l.Name, err))
		}
		is.done()
		return
	}
	go is.execFn()
}

// exec runs the unit — the loop body of a one-member unit, or one fused
// pass over every member — and resolves every member with its verdict.
//
//op2:noalloc
func (is *issueState) exec() {
	cl := is.members[0].cl
	if is.g == nil {
		is.settle(0, cl.ex.executeCompiled(is.ctx, cl))
	} else {
		cl.ex.executeFusedCtx(is.ctx, is.sp, is.g, is.errs)
		for j, err := range is.errs {
			is.settle(j, err)
		}
	}
	is.done()
}

// settle resolves member i's futures with its verdict. The user future
// may already have been failed promptly by the monitor; the chain future
// has exactly one resolver. The user future goes first: resolving the
// chain releases successors and host fences (Dat.Sync), and a caller
// that saw a fence pass must find the loop's own future ready too.
//
//op2:noalloc
func (is *issueState) settle(i int, err error) {
	m := &is.members[i]
	m.user.lco.TryResolve(err)
	m.chain.lco.Resolve(err)
}

// done ends the cycle once every member has settled: it wakes the
// monitor and drops the issue reference.
//
//op2:noalloc
func (is *issueState) done() {
	select {
	case is.wake <- struct{}{}:
	default:
	}
	is.release()
}

// ---------------------------------------------------------------------------
// Step issue

// stepIssue is the pooled join of one asynchronously issued step: it
// subscribes to every issued occurrence's user future and, once they have
// all fired, puts the first member error in program order onto the step's
// own future — the continuation replacement of the per-step completion
// goroutine. The subscriptions latch the members' verdicts, so the join
// never touches a member after it has fired and members recycle without
// waiting for it.
type stepIssue struct {
	sp   *StepPlan
	dw   depWaiter // one node per issued occurrence, in program order
	user userHandle
	refs atomic.Int32 // the completion scan + the plan's hold (see issueStep)
}

func (si *stepIssue) release() {
	if si.refs.Add(-1) == 0 && settledOK(&si.user.lco) {
		si.sp.issues.Put(si)
	}
}

// depsReady: every issued occurrence has resolved its user future.
// Cancellation fails those promptly, before the members' chains drain;
// a canceled step is never recycled, so that is harmless here.
func (si *stepIssue) depsReady() {
	si.user.lco.TryResolve(si.dw.firstHardErr()) // a compile failure resolved it already
	si.release()
}

// issueStep issues every group of the step plan as one unit and returns
// the step's user future. The plan holds its latest join until its next
// issue, so a step future waited before the step's next-but-one issue
// reads its own verdict.
func (ex *Executor) issueStep(ctx context.Context, sp *StepPlan) Future {
	si, _ := sp.issues.Get().(*stepIssue)
	if si == nil {
		si = &stepIssue{sp: sp}
		si.dw.owner = si
	}
	si.user.lco.ResetFresh()
	si.refs.Store(2)
	if sp.held != nil {
		sp.held.release()
	}
	sp.held = si
	si.dw.begin()
	for _, g := range sp.groups {
		is, err := ex.acquireGroup(ctx, sp, g)
		if err != nil {
			// A member failed to compile: nothing was issued for this
			// group or the rest. The step fails with the compile error;
			// the scan still waits for every occurrence already issued.
			si.user.lco.Resolve(err)
			break
		}
		is.issue(g.res)
		for j := range is.members {
			si.dw.await(&is.members[j].user.lco)
		}
	}
	si.dw.nhard = si.dw.nsub // every member's verdict counts
	si.dw.finish()
	return &si.user
}
