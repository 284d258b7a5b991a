package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"op2hpx/internal/hpx"
	"op2hpx/internal/hpx/sched"
	"op2hpx/internal/obs"
)

// CompiledLoop is the steady-state execution artifact of one loop under
// one executor, built on the loop's first execution and cached on the
// Loop. It pins everything the per-invocation path used to recompute:
//
//   - the resolved *Plan (no planCache mutex + map lookup per call),
//   - the scratchLayout of the loop's global reductions,
//   - the classified resource list for dataflow issue (classifyResources
//     used to rebuild a slice + map on every issue),
//   - the range body, bound once to the host arrays (the attached
//     Body, or the generic view-building binder over Kernel),
//   - the §V prefetcher configuration, and
//   - a pool of loopRun states holding the slot-indexed reduction
//     scratch table and the persistent chunk tasks of the parallel
//     region.
//
// A CompiledLoop is immutable after construction; all mutable
// per-invocation state lives in pooled loopRun values, so concurrent
// executions of the same loop (where a backend's contract allows them)
// are safe. Kernels are read through the Loop at invocation time, so
// re-attaching a Kernel between runs is observed without recompiling; a
// re-attached Body needs Loop.InvalidateCompiled.
type CompiledLoop struct {
	ex   *Executor
	l    *Loop
	plan *Plan // nil for loops without indirect modifications
	sl   scratchLayout
	res  []stepRes // distinct resources, strongest access (dataflow issue)
	pf   *loopPrefetcher

	body RangeBody // l.Binder() bound to the host arrays

	runs   sync.Pool // *loopRun
	issues sync.Pool // *issueState: pooled async-issue states (see issue.go)

	// hist caches the loop's op2_loop_seconds handle — one atomic load
	// per execution once registered (see CompiledLoop.histFor).
	hist atomic.Pointer[obs.Histogram]

	// Dependency gather buffers, reused across synchronous dataflow
	// invocations. Only the issuing goroutine touches them — the same
	// single-issuer contract that makes program order define the DAG.
	hardBuf, ordBuf []hpx.Waiter
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
	if conflicts := conflictMaps(l.Args); len(conflicts) > 0 {
		plan, err := ex.plans.get(l.Set, ex.cfg.BlockSize, conflicts)
		if err != nil {
			return nil, err
		}
		cl.plan = plan
	}
	cl.body = l.Binder()(hostBind{})
	cl.runs.New = func() any { return newLoopRun(cl) }
	return cl, nil
}

// hostBind is the shared-memory Bind: every loop indexes the
// declarations' own arrays.
type hostBind struct{}

func (hostBind) Dat(d *Dat) []float64 { return d.data }
func (hostBind) Map(m *Map) []int32   { return m.data }

// gatherDepsReuse is gatherDeps into the compiled loop's reusable
// buffers — zero allocations once the buffers have grown to the loop's
// steady-state dependency count. Issuing-goroutine only.
func (cl *CompiledLoop) gatherDepsReuse() (hard, ordering []hpx.Waiter) {
	cl.hardBuf, cl.ordBuf = gatherDepsInto(cl.res, cl.hardBuf[:0], cl.ordBuf[:0])
	return cl.hardBuf, cl.ordBuf
}

// getRun borrows a pooled per-invocation run state.
func (cl *CompiledLoop) getRun(ctx context.Context) *loopRun {
	lr := cl.runs.Get().(*loopRun)
	lr.ctx = ctx
	lr.region.ctx = ctx
	lr.nslots = 0
	lr.cursor = 0
	return lr
}

// putRun returns a run state to the pool.
func (cl *CompiledLoop) putRun(lr *loopRun) {
	lr.ctx = nil
	lr.region.ctx = nil
	lr.blocks = nil
	cl.runs.Put(lr)
}

// chunkRegion executes chunk claims on the scheduler pool through
// persistent, reusable task closures — the zero-allocation replacement
// of hpx.ForEachChunk for compiled loops. A region is configured with a
// chunk grid (start/size/end over elements or block indices) and an
// exec callback bound once at construction; dispatch then submits one
// pooled task per chunk and joins.
type chunkRegion struct {
	ctx      context.Context
	start    int // first element (direct) or block index (colored)
	size     int // chunk size in elements (direct) or blocks (colored)
	end      int // one past the last element / block index
	slotBase int // reduction slot of chunk 0 (direct grids)
	exec     func(c, lo, hi int)
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any
	tasks    []sched.Task // tasks[c] executes chunk c; grow-only
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
	r.exec(c, lo, hi)
}

// dispatch submits nchunks chunk claims onto the pool through the
// persistent task closures and joins. Task closures are created once
// per chunk ordinal and reused by every later invocation, so the
// steady-state region performs no allocations.
func (r *chunkRegion) dispatch(pool *sched.Pool, nchunks int) error {
	for len(r.tasks) < nchunks {
		c := len(r.tasks)
		r.tasks = append(r.tasks, func() { r.runChunk(c) })
	}
	r.wg.Add(nchunks)
	for c := 0; c < nchunks; c++ {
		if err := pool.Submit(r.tasks[c]); err != nil {
			// Pool closed (or closing raced the submit): run inline — the
			// task re-checks the context itself.
			r.tasks[c]()
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
// slot-indexed reduction scratch table and the parallel region that
// executes chunks on the scheduler pool through persistent, reusable
// task closures. Everything here is reused across invocations via the
// CompiledLoop's pool, which is what makes the steady-state issue path
// allocation-free.
type loopRun struct {
	cl  *CompiledLoop
	ctx context.Context

	// Reduction scratch table: slot s occupies red[s*size:(s+1)*size].
	// Slots are indexed by chunk (plan block id for planned loops, chunk
	// ordinal for direct loops); each range writes its own slot with no
	// locking, and finish folds slots in ascending order — the same
	// ascending-range combine the executor used to reconstruct with a
	// mutex-guarded list and a sort per invocation.
	red    []float64
	acc    []float64
	nslots int

	region chunkRegion
	blocks []int // current color's block ids; nil selects direct mode

	// Calibration state: measure consumes the range prefix on the
	// calling goroutine, like hpx auto_chunk_size.
	cursor  int
	measure func(k int) time.Duration
}

func newLoopRun(cl *CompiledLoop) *loopRun {
	lr := &loopRun{cl: cl}
	lr.measure = func(k int) time.Duration {
		if lr.blocks == nil {
			return lr.measureDirect(k)
		}
		return lr.measureBlocks(k)
	}
	lr.region.exec = func(c, lo, hi int) {
		if lr.blocks == nil {
			lr.runRange(lr.region.slotBase+c, lo, hi)
			return
		}
		plan := lr.cl.plan
		for i := lo; i < hi; i++ {
			b := lr.blocks[i]
			blo, bhi := plan.Block(b)
			lr.runRange(b, blo, bhi)
		}
	}
	return lr
}

// ensureSlots guarantees capacity for n reduction slots, preserving
// already-written slots (calibration writes slots before the parallel
// phase sizes the rest). No-op for loops without reductions.
func (lr *loopRun) ensureSlots(n int) {
	size := lr.cl.sl.size
	if size == 0 {
		return
	}
	if want := n * size; cap(lr.red) < want {
		grown := make([]float64, want)
		copy(grown, lr.red)
		lr.red = grown
	}
	lr.red = lr.red[:n*size]
}

// scratchFor initializes and returns slot s of the reduction table, or
// nil when the loop has no reductions.
func (lr *loopRun) scratchFor(s int) []float64 {
	size := lr.cl.sl.size
	if size == 0 {
		return nil
	}
	sc := lr.red[s*size : (s+1)*size]
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

// finish folds the reduction slots in ascending slot order — ascending
// range order by construction — and applies the result to the global
// variables. Must only run after every slot of a successful execution
// was written.
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
	for s := 0; s < lr.nslots; s++ {
		sl.combine(acc, lr.red[s*sl.size:(s+1)*sl.size], args)
	}
	sl.apply(acc, args)
}

// measureDirect executes k iterations for real at the cursor, assigning
// the next sequential slot — the calibration half of runDirect.
func (lr *loopRun) measureDirect(k int) time.Duration {
	n := lr.cl.l.Set.size
	if lr.cursor+k > n {
		k = n - lr.cursor
	}
	if k <= 0 {
		return time.Nanosecond
	}
	lr.ensureSlots(lr.nslots + 1)
	start := time.Now()
	lr.runRange(lr.nslots, lr.cursor, lr.cursor+k)
	lr.cursor += k
	lr.nslots++
	return time.Since(start)
}

// measureBlocks executes k whole blocks of lr.blocks for real at the
// cursor; slots are the global block ids (ascending within a color).
func (lr *loopRun) measureBlocks(k int) time.Duration {
	nb := len(lr.blocks)
	if lr.cursor+k > nb {
		k = nb - lr.cursor
	}
	if k <= 0 {
		return time.Nanosecond
	}
	plan := lr.cl.plan
	start := time.Now()
	for i := lr.cursor; i < lr.cursor+k; i++ {
		b := lr.blocks[i]
		lo, hi := plan.Block(b)
		lr.runRange(b, lo, hi)
	}
	lr.cursor += k
	return time.Since(start)
}
