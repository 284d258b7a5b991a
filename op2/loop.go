package op2

import (
	"context"
	"sync"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
	"op2hpx/internal/hpx"
)

// Arg describes one argument of a parallel loop: a dat (direct or through
// a map) or a global, with an access descriptor.
type Arg = core.Arg

// Kernel is a generic user kernel: views[k] is the slice view of argument
// k for the current set element (dim values for dat args, the reduction
// scratch for global args).
type Kernel = core.Kernel

// RangeBody is a specialized loop body covering the element range
// [lo, hi) — the shape the OP2 translator generates, indexing raw slices
// directly instead of building per-element views. scratch is the loop's
// reduction buffer (empty without global reductions); a RangeBody must
// touch data exactly as the loop's args declare.
type RangeBody = core.RangeBody

// Bind resolves the arrays a RangeBody indexes: Dat(d) and Map(m) return
// the declarations' own arrays under shared memory, and rank-local ones
// (owned and halo values in one array, map rows in local indices) on
// each rank of a distributed runtime.
type Bind = core.Bind

// Binder builds a loop's RangeBody over the arrays a Bind resolves; it
// runs once per compiled loop under shared memory and once per (loop,
// rank) under WithRanks:
//
//	lp.Body(func(b op2.Bind) op2.RangeBody {
//		q, qold := b.Dat(q), b.Dat(qold)
//		return func(lo, hi int, _ []float64) { copy(qold[4*lo:4*hi], q[4*lo:4*hi]) }
//	})
type Binder = core.Binder

// DatArg builds a dat argument (op_arg_dat): with m == nil the loop
// accesses element e of the dat directly (pass IDIdx as idx); with a map,
// it accesses dat element m[e][idx].
func DatArg(d *Dat, idx int, m *Map, acc Access) Arg { return core.ArgDat(d, idx, m, acc) }

// DirectArg is DatArg for the common identity-mapped case.
func DirectArg(d *Dat, acc Access) Arg { return core.ArgDat(d, core.IDIdx, nil, acc) }

// GblArg builds a global argument (op_arg_gbl): Read passes parameters
// in, Inc/Min/Max perform reductions.
func GblArg(g *Global, acc Access) Arg { return core.ArgGbl(g, acc) }

// Loop is a declared parallel loop (op_par_loop) bound to its runtime.
// Build it with Runtime.ParLoop, attach a Kernel (and optionally a
// specialized Body), then invoke it any number of times with Run or
// Async — execution plans are cached across invocations. The builder
// calls (Kernel, Body) are not safe for concurrent use; invocation is,
// within the backend's concurrency contract.
type Loop struct {
	rt   *Runtime
	l    core.Loop
	once *sync.Once       // guards the lazily cached validation verdict
	err  error            // validation error, reported at invocation
	dh   *dist.StepHandle // pinned one-loop step plan (WithRanks runtimes)
	iss  issuer           // pooled Future wrapper + outstanding sweep
}

// ParLoop declares a parallel loop over set with the given arguments.
// The returned Loop needs a Kernel (or Body) before it can run; argument
// validation is deferred to the first invocation so declaration sites
// stay chainable.
func (rt *Runtime) ParLoop(name string, set *Set, args ...Arg) *Loop {
	rt.trackArgs(args)
	return &Loop{rt: rt, l: core.Loop{Name: name, Set: set, Args: args}, once: new(sync.Once)}
}

// Kernel attaches the generic per-element kernel and returns the loop.
func (lp *Loop) Kernel(k Kernel) *Loop {
	lp.l.Kernel = k
	lp.reset()
	return lp
}

// Body attaches a specialized range body through its binder (the
// translator-generated shape); when both are set, Body takes precedence.
func (lp *Loop) Body(b Binder) *Loop {
	lp.l.Body = b
	lp.reset()
	return lp
}

// reset drops everything derived from the attached kernel or body: the
// cached validation verdict, the pinned distributed plan and every bound
// body.
func (lp *Loop) reset() {
	lp.once, lp.err, lp.dh = new(sync.Once), nil, nil
	lp.l.InvalidateCompiled()
}

// distHandle lazily compiles the loop's one-loop distributed step plan,
// so repeated invocations skip the engine's per-invocation loop-list
// allocation, key construction and re-validation. Compile errors fall
// back to the legacy path, which reports them identically.
func (lp *Loop) distHandle() *dist.StepHandle {
	if lp.dh == nil {
		if h, err := lp.rt.eng.CompileStep(lp.l.Name, []*core.Loop{&lp.l}); err == nil {
			lp.dh = h
		}
	}
	return lp.dh
}

// Name returns the loop's name.
func (lp *Loop) Name() string { return lp.l.Name }

// validate checks the loop once per attached kernel/body and caches the
// verdict, so repeated invocations of a hot loop skip re-validation.
// sync.Once makes the first concurrent invocations race-free.
func (lp *Loop) validate() error {
	lp.once.Do(func() { lp.err = wrapValidation(lp.l.Validate()) })
	return lp.err
}

// Run executes the loop synchronously under the runtime's backend and
// returns once it (and, for ForkJoin, its implicit barrier) completes.
// A single loop is equivalent to a one-loop Step (and on distributed
// runtimes is executed as one internally); declare the loops of a whole
// timestep with Runtime.Step to let the runtime optimize across loop
// boundaries.
// Under Dataflow the loop is still chained into the dependency DAG —
// program order with previously issued Async loops is preserved — but the
// body executes inline on the calling goroutine once its dependencies
// resolve. A canceled ctx aborts the loop nest between colors and chunks
// and returns an error wrapping ErrCanceled; chunks already executing
// finish, so data may be partially updated.
//
//op2:noalloc
func (lp *Loop) Run(ctx context.Context) error {
	if err := lp.validate(); err != nil {
		return err
	}
	if lp.rt.eng != nil {
		if h := lp.distHandle(); h != nil {
			return classify(lp.rt.eng.RunStepHandle(ctx, h))
		}
		return classify(lp.rt.eng.Run(ctx, &lp.l))
	}
	return classify(lp.rt.ex.RunCtx(ctx, &lp.l))
}

// Async issues the loop asynchronously and returns its completion future;
// it requires the Dataflow backend. The loop body starts as soon as the
// futures of every dat and global it accesses are ready; its own future
// becomes those resources' new version, which is what lets independent
// loops interleave and dependent loops chain without global barriers.
//
// Contract: all loops of a Dataflow runtime — Async and Run alike —
// must be issued from a single goroutine, because program order of the
// issuing goroutine defines the dependency DAG; two goroutines racing to
// issue loops over the same dats would make the version chain (and
// therefore the results) nondeterministic. This is the same contract the
// paper's modified Airfoil.cpp relies on; fan out work inside kernels,
// not across issuing goroutines.
//
// A canceled ctx stops the loop from waiting on its dependencies (or
// aborts it mid-execution between colors) and resolves the future with an
// error wrapping ErrCanceled.
//
//op2:noalloc
func (lp *Loop) Async(ctx context.Context) *Future {
	if err := lp.validate(); err != nil {
		//op2:coldpath a validation failure vends a one-off error future
		return &Future{f: hpx.MakeErr[struct{}](err)}
	}
	lim := lp.rt.maxInFlight
	lp.iss.reserve(lim)
	var f core.Future
	var ack func(error)
	if lp.rt.eng != nil {
		ack = lp.rt.eng.AckError
		if h := lp.distHandle(); h != nil {
			f = lp.rt.eng.RunStepHandleAsync(ctx, h)
		} else {
			f = lp.rt.eng.RunAsync(ctx, &lp.l)
		}
	} else {
		f = lp.rt.ex.RunAsyncCtx(ctx, &lp.l)
	}
	lp.iss.record(f, lim)
	return lp.iss.wrap(f, ack)
}

// Future is the completion future of an asynchronously issued loop or
// step. Futures over pooled issue states are themselves pooled, one
// wrapper per underlying state: a Future is valid until its first Wait
// returns — afterwards the runtime may recycle the issue state beneath
// it for the same loop's or step's next Async, and a later Wait on the
// same handle observes that newer issue. Waiting a future once, or
// abandoning it, are both fine; abandoned issues are swept and recycled
// on the loop's or step's next Async.
type Future struct {
	f   core.Future
	ack func(error) // distributed engine: mark the error as delivered
}

// Wait blocks until the loop completes and returns its error, classified
// against the package sentinels (ErrCanceled, ErrValidation). On a
// distributed runtime, waiting also marks the error as delivered so a
// later Dat/Global Sync does not report it a second time.
//
//op2:noalloc
func (f *Future) Wait() error {
	err := f.f.Wait()
	if err != nil && f.ack != nil {
		f.ack(err)
	}
	return classify(err)
}

// Ready reports whether the loop has completed, without blocking.
func (f *Future) Ready() bool { return f.f.Ready() }

// Done exposes the completion channel for use in select statements.
func (f *Future) Done() <-chan struct{} { return f.f.Done() }

// releasable marks core's pooled issue handles (its methods are the
// explicit consumption hooks; the sweep below consumes resolved handles
// through their auto-releasing Wait).
type releasable interface{ TryRelease() bool }

// issuer vends Future wrappers for one loop or step and sweeps abandoned
// pooled handles so pipelined issuers that drop intermediate futures
// (issue every iteration, fence once) still recycle their issue states.
// Touched only by the issuing goroutine, per the Async contract.
//
// Wrappers over pooled handles are cached one-per-handle: a pooled
// handle always comes back with the same underlying identity, so its
// wrapper's fields are written exactly once — a stale Wait racing the
// loop's next Async reads immutable fields and simply observes the
// newer cycle, with no rewritten state to tear.
type issuer struct {
	wrappers    map[core.Future]*Future
	outstanding []core.Future // pooled handles not yet consumed

	// ring holds the raw futures of the last k Async issues in issue
	// order when the runtime caps issue-ahead (WithMaxInFlightSteps):
	// reserve blocks on the oldest slot before the next issue, record
	// overwrites it afterwards. Touched only by the issuing goroutine.
	ring []core.Future
	head int
}

// reserve blocks until this issuer's pipeline is below the in-flight cap:
// with cap limit, the limit-th-previous Async issue must have resolved
// before the next one is issued. The oldest future is waited raw, without
// delivering its error — a failed issue keeps surfacing exactly like an
// abandoned future, at the next Wait, Sync or Fence.
//
//op2:noalloc
func (is *issuer) reserve(limit int) {
	if limit <= 0 || len(is.ring) < limit {
		return
	}
	if o := is.ring[is.head]; o != nil {
		o.Wait() //nolint:errcheck // backpressure only: the error still surfaces at the next fence
	}
}

// record notes a fresh issue in the in-flight ring (see reserve).
//
//op2:noalloc
func (is *issuer) record(f core.Future, limit int) {
	if limit <= 0 {
		return
	}
	//op2:coldpath warmup: the ring grows once up to the in-flight cap, then recycles slots
	if len(is.ring) < limit {
		is.ring = append(is.ring, f)
		return
	}
	is.ring[is.head] = f
	is.head++
	if is.head == limit {
		is.head = 0
	}
}

// wrap vends the Future for a fresh issue.
//
//op2:noalloc
func (is *issuer) wrap(f core.Future, ack func(error)) *Future {
	// Sweep: consume outstanding handles whose issues have resolved and
	// were abandoned (a resolved handle's Wait is non-blocking and
	// releases it). Successful ones recycle their pooled state; failed
	// ones are dropped along with their wrapper cache entry so they
	// cannot accumulate — their errors keep propagating through the
	// version chains, which is where abandoned failures were always
	// surfaced. Pending issues stay until resolved.
	kept := is.outstanding[:0]
	for _, o := range is.outstanding {
		if !o.Ready() {
			//op2:allow kept reuses outstanding's backing array (kept is a strict subset)
			kept = append(kept, o)
			continue
		}
		if o.Wait() != nil { // non-blocking: consumes and releases
			//op2:coldpath failed abandoned issue: drop its wrapper so it cannot accumulate
			delete(is.wrappers, o)
		}
	}
	for i := len(kept); i < len(is.outstanding); i++ {
		is.outstanding[i] = nil
	}
	is.outstanding = kept
	//op2:coldpath unpooled handles (distributed engine futures, error futures) get a fresh garbage-collected wrapper
	if _, ok := f.(releasable); !ok {
		// Unpooled handle (distributed engine futures, error futures):
		// fresh wrapper, garbage-collected with it.
		return &Future{f: f, ack: ack}
	}
	//op2:allow outstanding reuses its backing array; it grows only to the in-flight cap
	is.outstanding = append(is.outstanding, f)
	fut := is.wrappers[f]
	//op2:coldpath first issue of a pooled state builds its cached wrapper; steady state hits the cache
	if fut == nil {
		if is.wrappers == nil {
			is.wrappers = make(map[core.Future]*Future)
		}
		fut = &Future{f: f, ack: ack}
		is.wrappers[f] = fut
	}
	return fut
}

// WaitAll waits for every future (nils are skipped) and returns the first
// error in argument order.
func WaitAll(fs ...*Future) error {
	var firstErr error
	for _, f := range fs {
		if f == nil {
			continue
		}
		if err := f.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
