package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"op2hpx/internal/hpx/sched"
	"op2hpx/internal/obs"
)

// CompiledLoop is the steady-state execution artifact of one loop under
// one executor, built on the loop's first execution and cached on the
// Loop. It pins everything the per-invocation path used to recompute:
//
//   - the resolved *Plan, whose blocks are the loop's one execution and
//     reduction grid (no planCache mutex + map lookup per call),
//   - the scratchLayout of the loop's global reductions,
//   - the classified resource list for dataflow issue (classifyResources
//     used to rebuild a slice + map on every issue),
//   - the range body, bound once to the host arrays (the attached
//     Body, or the generic view-building binder over Kernel),
//   - the §V prefetcher configuration, and
//   - a pool of loopRun states holding the block-indexed reduction
//     scratch table and the persistent chunk task of the parallel
//     region.
//
// A CompiledLoop is immutable after construction except for
// colorChunks, the per-color block-chunk sizes the loop calibrates on
// its first parallel execution, which is swapped atomically. All other
// mutable per-invocation state lives in pooled loopRun values, so concurrent
// executions of the same loop (where a backend's contract allows them)
// are safe. Kernels are read through the Loop at invocation time, so
// re-attaching a Kernel between runs is observed without recompiling; a
// re-attached Body needs Loop.InvalidateCompiled.
type CompiledLoop struct {
	ex   *Executor
	l    *Loop
	plan *Plan // colored against the indirect modifying maps; one color otherwise
	sl   scratchLayout
	res  []stepRes // distinct resources, strongest access (dataflow issue)
	pf   *loopPrefetcher

	body RangeBody // l.Binder() bound to the host arrays

	runs   sync.Pool   // *loopRun
	issues issuePool   // the loop's one-member issue units (see issue.go)
	held   *issueState // the unit of its latest RunAsyncCtx (see hold)

	// hist caches the loop's op2_loop_seconds handle — one atomic load
	// per execution once registered (see CompiledLoop.histFor).
	hist atomic.Pointer[obs.Histogram]

	// colorChunks holds the loop's calibrated chunk sizes (see
	// blockWalk.walk); nil until its first parallel execution.
	colorChunks atomic.Pointer[colorChunkSizes]
}

// colorChunkSizes is a plan's block-chunk size per color, valid for the
// executor and pool size it was calibrated at.
type colorChunkSizes struct {
	ex      *Executor
	workers int
	sizes   []int
}

// compiled returns the loop's compiled artifact for this executor,
// building and caching it on first use. A loop that migrates between
// executors (different block size, prefetch distance or plan cache) is
// recompiled for the new executor.
func (ex *Executor) compiled(l *Loop) (*CompiledLoop, error) {
	if cl := l.compiled.Load(); cl != nil && cl.ex == ex {
		return cl, nil
	}
	cl, err := ex.compileLoop(l)
	if err != nil {
		return nil, err
	}
	l.compiled.Store(cl)
	return cl, nil
}

// compileLoop builds the compiled artifact: resolve the plan, lay out
// the reduction scratch, classify the resources, bind the body, and
// configure the prefetcher.
func (ex *Executor) compileLoop(l *Loop) (*CompiledLoop, error) {
	cl := &CompiledLoop{
		ex:  ex,
		l:   l,
		sl:  layoutScratch(l.Args),
		res: classifyResources(l.Args),
		pf:  ex.newLoopPrefetcher(l),
	}
	plan, err := ex.plans.get(l.Set, ex.cfg.BlockSize, conflictMaps(l.Args))
	if err != nil {
		return nil, err
	}
	cl.plan = plan
	cl.body = l.Binder()(hostBind{})
	cl.runs.New = func() any { return newLoopRun(cl) }
	return cl, nil
}

// hostBind is the shared-memory Bind: every loop indexes the
// declarations' own arrays.
type hostBind struct{}

func (hostBind) Dat(d *Dat) []float64 { return d.data }
func (hostBind) Map(m *Map) []int32   { return m.data }

// getRun borrows a pooled per-invocation run state.
func (cl *CompiledLoop) getRun(ctx context.Context) *loopRun {
	lr := cl.runs.Get().(*loopRun)
	lr.region.ctx = ctx
	return lr
}

// putRun returns a run state to the pool.
func (cl *CompiledLoop) putRun(lr *loopRun) {
	lr.region.ctx = nil
	cl.runs.Put(lr)
}

// chunkRegion executes chunk claims on the scheduler pool through one
// persistent, reusable task closure — the zero-allocation replacement
// of hpx.ForEachChunk for compiled loops. A region is configured with a
// chunk grid (start/size/end over one color's block list) and an exec
// callback bound once at construction; dispatch then submits the claim
// task once per chunk and joins. Each run of the task claims the next
// unclaimed chunk ordinal, so a grid of any size costs no allocation.
// Which worker runs a chunk never matters to the results: reduction
// slots are plan blocks, not chunks.
type chunkRegion struct {
	ctx      context.Context
	start    int // first block index of the grid
	size     int // chunk size in blocks
	end      int // one past the last block index
	exec     func(lo, hi int)
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any
	next     atomic.Int64 // next unclaimed chunk ordinal
	claim    sched.Task   // cached: run the next unclaimed chunk
}

// runChunk claims chunk c of the current grid.
func (r *chunkRegion) runChunk(c int) {
	defer r.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			r.panicMu.Lock()
			if r.panicked == nil {
				r.panicked = p
			}
			r.panicMu.Unlock()
		}
	}()
	if r.ctx.Err() != nil {
		return // canceled while queued: skip the chunk
	}
	lo := r.start + c*r.size
	hi := lo + r.size
	if hi > r.end {
		hi = r.end
	}
	r.exec(lo, hi)
}

// dispatch submits nchunks chunk claims onto the pool through the
// persistent claim task and joins. The task closure is created on the
// region's first dispatch and reused by every later one, so the
// steady-state region performs no allocations.
func (r *chunkRegion) dispatch(pool *sched.Pool, nchunks int) error {
	if r.claim == nil {
		r.claim = func() { r.runChunk(int(r.next.Add(1) - 1)) }
	}
	r.next.Store(0)
	r.wg.Add(nchunks)
	for c := 0; c < nchunks; c++ {
		if err := pool.Submit(r.claim); err != nil {
			// Pool closed (or closing raced the submit): run inline — the
			// task re-checks the context itself.
			r.claim()
		}
	}
	r.wg.Wait()
	if p := r.panicked; p != nil {
		r.panicked = nil
		return fmt.Errorf("parallel region panicked: %v", p)
	}
	return r.ctx.Err()
}

// loopRun is the mutable per-invocation state of a compiled loop: the
// block-indexed reduction scratch table and the block walker that runs
// the plan, on the calling goroutine or on the scheduler pool through
// one persistent, reusable task closure. Everything here is reused
// across invocations via the CompiledLoop's pool, which is what makes
// the steady-state issue path allocation-free.
type loopRun struct {
	cl *CompiledLoop

	// Reduction scratch table: slot s occupies red[s*stride:s*stride+size]
	// (see scratchLayout), one slot per plan block. The table starts on a
	// cache line and the stride is whole lines, so blocks running on
	// different workers never write the same line. Each block writes its
	// own slot with no locking, and finish folds slots in ascending block
	// id — one fold order whatever the backend, chunker or pool size.
	red []float64
	acc []float64

	blockWalk
}

func newLoopRun(cl *CompiledLoop) *loopRun {
	lr := &loopRun{cl: cl}
	if stride := cl.sl.stride; stride > 0 {
		lr.red = alignedFloats(cl.plan.NBlocks() * stride)
	}
	lr.plan, lr.merge = cl.plan, cl.sl.size == 0
	lr.bind(lr.runRange)
	return lr
}

// cacheLineFloats is the number of float64s in one 64-byte cache line.
const cacheLineFloats = 8

// alignedFloats returns n zeroed float64s starting on a cache line.
func alignedFloats(n int) []float64 {
	buf := make([]float64, n+cacheLineFloats-1)
	off := 0
	if mis := int(uintptr(unsafe.Pointer(&buf[0])) / 8 % cacheLineFloats); mis != 0 {
		off = cacheLineFloats - mis
	}
	return buf[off : off+n : off+n]
}

// slot returns slot s of the reduction table.
func (lr *loopRun) slot(s int) []float64 {
	sl := &lr.cl.sl
	return lr.red[s*sl.stride : s*sl.stride+sl.size]
}

// scratchFor initializes and returns slot s of the reduction table, or
// nil when the loop has no reductions.
func (lr *loopRun) scratchFor(s int) []float64 {
	if lr.cl.sl.size == 0 {
		return nil
	}
	sc := lr.slot(s)
	copy(sc, lr.cl.sl.initv)
	return sc
}

// runRange executes the body over [lo, hi) with the reduction scratch of
// slot s, through the prefetcher when one is configured.
func (lr *loopRun) runRange(slot, lo, hi int) {
	s := lr.scratchFor(slot)
	if pf := lr.cl.pf; pf != nil {
		pf.run(lo, hi, s, lr.cl.body)
	} else {
		lr.cl.body(lo, hi, s)
	}
}

// finish folds the reduction slots in ascending block id and applies
// the result to the global variables. Must only run after every block
// of a successful execution ran.
func (lr *loopRun) finish() {
	sl := &lr.cl.sl
	if sl.size == 0 {
		return
	}
	if cap(lr.acc) < sl.size {
		lr.acc = make([]float64, sl.size)
	}
	acc := lr.acc[:sl.size]
	copy(acc, sl.initv)
	args := lr.cl.l.Args
	for s := 0; s < lr.cl.plan.NBlocks(); s++ {
		sl.combine(acc, lr.slot(s), args)
	}
	sl.apply(acc, args)
}
