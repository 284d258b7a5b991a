package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"op2hpx/internal/hpx"
	"op2hpx/internal/hpx/sched"
	"op2hpx/internal/obs"
)

// Backend selects how parallel loops execute — the axis the paper's
// evaluation compares.
type Backend int

const (
	// Serial executes loops on the calling goroutine.
	Serial Backend = iota
	// ForkJoin is the baseline the paper attacks ("#pragma omp parallel
	// for", Fig. 4): each loop runs its chunks on the executor's pool — a
	// persistent team, as in OpenMP — and joins before the next loop is
	// issued, the implicit global barrier. It differs from Dataflow only
	// in policy: no step fusion, and even static chunks by default.
	ForkJoin
	// Dataflow is the paper's contribution (§IV): loops are issued
	// asynchronously, consume the futures of the dats they access and
	// return futures, so independent loops interleave and dependent
	// loops chain without global barriers.
	Dataflow
)

func (b Backend) String() string {
	switch b {
	case Serial:
		return "serial"
	case ForkJoin:
		return "forkjoin"
	case Dataflow:
		return "dataflow"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// DefaultBlockSize is the plan block size used when the config leaves it
// zero; OP2's OpenMP backend uses blocks of a few hundred elements.
const DefaultBlockSize = 256

// Config configures an Executor.
type Config struct {
	// Backend selects serial, fork-join or dataflow execution.
	Backend Backend
	// Pool hosts the loop chunks; nil uses the process-wide pool.
	Pool *sched.Pool
	// Chunker controls chunk sizes (§IV-B) in whole plan blocks. Nil
	// defaults per backend: ForkJoin uses even static division (the
	// OpenMP baseline), Dataflow uses auto chunk sizing. Pass a
	// *hpx.PersistentAutoChunker shared across loops to reproduce
	// persistent_auto_chunk_size. ForkJoin and Dataflow consult it alike
	// — a calibrating chunker times a probe of whole blocks under either
	// — once per color of a loop or fused pass, on its first execution
	// at a given pool size (see blockWalk.walk). Chunks never change
	// results: reductions fold per plan block.
	Chunker hpx.Chunker
	// BlockSize is the plan block size of every loop.
	BlockSize int
	// PrefetchDistance enables the §V prefetcher when >= 1: while a
	// prefetch unit of a chunk executes, the next unit's cache lines of
	// every container the loop touches are read ahead. The value is the
	// prefetch_distance_factor in cache lines.
	PrefetchDistance int
}

// Executor runs OP2 loops under a fixed configuration, caching execution
// plans across invocations of the same loop shape.
type Executor struct {
	cfg      Config
	plans    planCache
	profiler *Profiler
	metrics  *obs.Registry
	tracer   *obs.TraceRing

	// Step-execution counters behind StepStats: steps issued, fused
	// groups executed, and loop occurrences those groups absorbed.
	stepsRun       atomic.Int64
	fusedGroupsRun atomic.Int64
	fusedLoopsRun  atomic.Int64
}

// StepExecStats are cumulative step-execution counters: how many steps
// the executor issued, how many multi-loop fused passes it ran, and how
// many loop occurrences those passes absorbed (each fused occurrence is
// one loop issue and one memory sweep that did not happen separately).
type StepExecStats struct {
	Steps       int64
	FusedGroups int64
	FusedLoops  int64
}

// StepStats reports the executor's cumulative step-execution counters.
func (ex *Executor) StepStats() StepExecStats {
	return StepExecStats{
		Steps:       ex.stepsRun.Load(),
		FusedGroups: ex.fusedGroupsRun.Load(),
		FusedLoops:  ex.fusedLoopsRun.Load(),
	}
}

// NewExecutor creates an executor from cfg, applying defaults.
func NewExecutor(cfg Config) *Executor {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Chunker == nil {
		switch cfg.Backend {
		case ForkJoin:
			cfg.Chunker = hpx.EvenChunker(1)
		default:
			cfg.Chunker = hpx.AutoChunker()
		}
	}
	return &Executor{cfg: cfg}
}

// Config returns the executor's effective configuration.
func (ex *Executor) Config() Config { return ex.cfg }

// pool returns the scheduler pool backing parallel execution.
func (ex *Executor) pool() *sched.Pool {
	if ex.cfg.Pool != nil {
		return ex.cfg.Pool
	}
	return sched.Default()
}

// Run executes the loop synchronously: it returns once every chunk of
// the loop has joined — the implicit end-of-loop barrier of fork-join.
func (ex *Executor) Run(l *Loop) error {
	return ex.RunCtx(context.Background(), l)
}

// RunCtx is Run with a cancellation context: a done ctx aborts the loop
// nest between colors and between chunks, returning an error wrapping
// ctx.Err(); in-flight chunks complete, so data may be partially updated.
//
// Under the Dataflow backend RunCtx still chains the loop into the
// dependency DAG, but — because the caller blocks anyway — it waits for
// the dependencies and executes the body inline on the calling goroutine
// instead of spawning the dependency-wait goroutine RunAsyncCtx needs.
// When every dependency is already resolved (the common case for a purely
// synchronous program) this costs no scheduling at all; and because the
// loop is finished before its resources' version chains are updated, the
// successful path records a settled chain instead of a future —
// steady-state synchronous issue allocates nothing (see CompiledLoop).
func (ex *Executor) RunCtx(ctx context.Context, l *Loop) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ex.cfg.Backend != Dataflow {
		return ex.executeCtx(ctx, l)
	}
	cl, err := ex.compiled(l)
	if err != nil {
		return err
	}
	hard, ordering := cl.issues.gather(cl.res)
	if err := waitDeps(ctx, hard, ordering); err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("op2: loop %q canceled: %w", l.Name, ctx.Err())
		} else {
			err = fmt.Errorf("op2: loop %q dependency failed: %w", l.Name, err)
		}
		// The chain entry this failure records must not resolve before
		// the dependencies beneath it have drained; issueFailAfterDeps
		// resolves it through continuations on the stragglers.
		cl.issueFailAfterDeps(ctx, err, hard, ordering)
		return err
	}
	if err := ex.executeCompiled(ctx, cl); err != nil {
		cl.issueFailAfterDeps(ctx, err, nil, nil)
		return err
	}
	// Everything the loop touched is settled: successors need not wait
	// for anything, and nothing was allocated to tell them so. Recording
	// happens after execution, which is equivalent under the single-
	// issuing-goroutine contract — no other issue can observe the gap.
	recordResourcesQuiet(cl.res)
	return nil
}

// RunAsync issues the loop asynchronously under the dataflow backend and
// returns its completion future. The loop body starts as soon as the
// futures of every dat and global it accesses are ready (Fig. 8); its own
// future becomes those resources' new version, which is what lets OP2
// "interleave different loops together at runtime" (Fig. 11). RunAsync
// must be called from a single issuing goroutine so program order defines
// the dependency DAG — the same contract the paper's modified Airfoil.cpp
// relies on.
//
// The returned Future is pooled: it reads its own verdict until the
// loop's next-but-one issue, which may reuse the underlying state (see
// core.Future).
// Steady-state issue of a compiled loop allocates nothing — dependencies
// are linked as intrusive continuations onto the predecessors' wait-lists
// instead of being awaited by a per-issue goroutine.
func (ex *Executor) RunAsync(l *Loop) Future {
	return ex.RunAsyncCtx(context.Background(), l)
}

// RunAsyncCtx is RunAsync with a cancellation context: once ctx is done
// the loop stops waiting for its dependencies (or aborts mid-execution
// between colors/chunks) and its future resolves with an error wrapping
// ctx.Err(). The single-issuing-goroutine contract of RunAsync applies
// unchanged.
func (ex *Executor) RunAsyncCtx(ctx context.Context, l *Loop) Future {
	if err := l.Validate(); err != nil {
		return hpx.MakeErr[struct{}](err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cl, err := ex.compiled(l)
	if err != nil {
		return hpx.MakeErr[struct{}](err)
	}
	is := cl.acquireIssue(ctx)
	cl.hold(is)
	is.issue(cl.res)
	return &is.members[0].user
}

// classifyResources folds a loop's arguments into its distinct resource
// list with the strongest access seen per resource — the per-dat
// read/write classification both the per-loop issue path and the
// StepPlan builder share.
//
// The hard flag splits dependencies by failure semantics: hard futures
// guard resources whose prior state the loop can observe — any read
// access (Read/RW/Inc/Min/Max), and also map-indirect Write args, which
// overwrite only the mapped subset of the dat and leave the rest exposed.
// If such a dependency failed, the loop would consume (or pass through)
// undefined data, so the failure propagates. Ordering-only resources are
// the ones the loop overwrites entirely — direct Write args, which cover
// every element of the iteration set and therefore the whole dat. The
// loop must wait for them so program order holds, but a failed (e.g.
// canceled) predecessor does not poison data that is about to be fully
// rewritten. This is what lets a re-initializing direct Write loop heal
// a version chain after a cancellation.
func classifyResources(args []Arg) []stepRes {
	var resources []stepRes
	index := map[*versionState]int{}
	add := func(st *versionState, hardDep, writes bool) {
		if i, ok := index[st]; ok {
			resources[i].hard = resources[i].hard || hardDep
			resources[i].writes = resources[i].writes || writes
			return
		}
		index[st] = len(resources)
		resources = append(resources, stepRes{state: st, hard: hardDep, writes: writes})
	}
	for _, a := range args {
		switch {
		case a.gbl != nil:
			add(&a.gbl.state, true, a.acc.writes())
		case a.dat != nil:
			fullOverwrite := a.acc == Write && a.m == nil
			add(&a.dat.state, !fullOverwrite, a.acc.writes())
		}
	}
	return resources
}

// recordResources installs h as every resource's new version; it is the
// only code that puts a chain future into a version chain. Gathering
// and recording happen before an issue call returns, so the DAG
// reflects program order.
func recordResources(resources []stepRes, h *chainHandle) {
	for _, r := range resources {
		acc := Read
		if r.writes {
			acc = RW
		}
		r.state.record(acc, h)
	}
}

// recordResourcesQuiet settles every written resource's version chain
// without installing a future — the post-execution record of the
// synchronous issue path (see versionState.recordQuiet). Finished read
// accesses need no record at all.
func recordResourcesQuiet(resources []stepRes) {
	for _, r := range resources {
		if r.writes {
			r.state.recordQuiet()
		}
	}
}

// waitDeps waits for a loop's dependencies under ctx: ordering-only
// dependencies are awaited but their errors are swallowed (the loop
// overwrites those resources), hard dependencies propagate. The returned
// error is either the context's error or a hard dependency failure.
//
// When the wait is abandoned by cancellation some dependencies may still
// be executing — the caller must record the loop's failure through
// issueFailAfterDeps, never as a resolved chain future.
func waitDeps(ctx context.Context, hard, ordering []*chainHandle) error {
	if err := hpx.WaitAllCtx(ctx, ordering...); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// A purely write-ordered predecessor failed; execution order is
		// satisfied and the data will be overwritten — don't propagate.
	}
	return hpx.WaitAllCtx(ctx, hard...)
}

// executeCtx runs the loop body to completion on the configured pool,
// compiling the loop on first execution (see CompiledLoop).
func (ex *Executor) executeCtx(ctx context.Context, l *Loop) error {
	cl, err := ex.compiled(l)
	if err != nil {
		return err
	}
	return ex.executeCompiled(ctx, cl)
}

// executeCompiled runs a compiled loop to completion. Panics from the
// kernel — whether on the calling goroutine (serial execution, chunk
// calibration) or inside pool tasks — surface as errors. A done ctx
// aborts between colors and chunks. All per-invocation state
// is pooled on the compiled loop, so steady-state execution performs no
// allocations.
func (ex *Executor) executeCompiled(ctx context.Context, cl *CompiledLoop) (err error) {
	l := cl.l
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("op2: loop %q panicked: %v", l.Name, r)
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("op2: loop %q canceled: %w", l.Name, cerr)
	}
	var profStart time.Time
	if ex.profiler != nil || ex.metrics != nil || ex.tracer != nil {
		profStart = time.Now()
		defer func() {
			if err != nil {
				return
			}
			d := time.Since(profStart)
			if ex.profiler != nil {
				// The plan is pinned on the compiled loop — no planCache
				// lock and lookup per profiled invocation.
				ex.profiler.record(l.Name, l.Set.Name(), d, cl.plan)
			}
			if ex.metrics != nil {
				cl.histFor(ex.metrics).ObserveDuration(d)
			}
			if ex.tracer != nil {
				ex.tracer.Record(l.Name, "exec", 0, profStart, d)
			}
		}()
	}
	lr := cl.getRun(ctx)
	defer cl.putRun(lr)
	if l.Set.size == 0 {
		lr.finish()
		return nil
	}
	runErr := lr.walk(ctx, ex, &cl.colorChunks)
	if runErr != nil {
		return fmt.Errorf("op2: loop %q: %w", l.Name, runErr)
	}
	lr.finish()
	return nil
}

// blockWalk executes a plan color by color and block by block — the
// one execution path of every compiled loop and fused pass, on every
// backend. Blocks within a color are mutually conflict-free and run in
// parallel; a barrier separates colors, exactly like OP2's OpenMP plan
// execution in Fig. 4. Each block runs into the reduction slot of its
// block id, so a loop's reductions fold the same way whichever backend,
// chunker or pool size ran it.
type blockWalk struct {
	plan *Plan
	// exec runs the elements [lo, hi) into reduction slot `slot`.
	exec func(slot, lo, hi int)
	// merge runs adjacent blocks as one range: set when nothing writes
	// a reduction slot, so loops without reductions pay no per-block
	// call.
	merge  bool
	region chunkRegion

	// blocks are the current color's block ids; cursor counts those
	// already run by calibration, which executes whole blocks for real
	// on the calling goroutine, like hpx auto_chunk_size.
	blocks  []int
	cursor  int
	measure func(k int) time.Duration
}

// bind creates the walker's callbacks once, so steady-state walks
// allocate nothing.
func (w *blockWalk) bind(exec func(slot, lo, hi int)) {
	w.exec = exec
	w.region.exec = w.runBlocks
	w.measure = func(k int) time.Duration {
		k = min(k, len(w.blocks)-w.cursor)
		if k <= 0 {
			return time.Nanosecond
		}
		start := time.Now()
		w.runBlocks(w.cursor, w.cursor+k)
		w.cursor += k
		return time.Since(start)
	}
}

// runBlocks executes blocks[i:j] of the current color in order.
func (w *blockWalk) runBlocks(i, j int) {
	for i < j {
		b := w.blocks[i]
		lo, hi := w.plan.Block(b)
		for i++; w.merge && i < j && w.blocks[i] == w.blocks[i-1]+1; i++ {
			_, hi = w.plan.Block(w.blocks[i])
		}
		w.exec(b, lo, hi)
	}
}

// walk executes every color of the plan in ascending order. Serial runs
// each color inline. The parallel backends spread a color's blocks over
// the pool in chunks of whole blocks; the chunker is consulted once per
// color on the first walk at a given pool size — a calibrating chunker
// probes whole blocks, executed for real — and the sizes are kept in
// cal, so later walks dispatch each color with no probe.
func (w *blockWalk) walk(ctx context.Context, ex *Executor, cal *atomic.Pointer[colorChunkSizes]) error {
	plan := w.plan
	var pool *sched.Pool
	var sizes, fresh []int
	workers := 0
	if ex.cfg.Backend != Serial {
		pool = ex.pool()
		workers = pool.Size()
		if c := cal.Load(); c != nil && c.ex == ex && c.workers == workers {
			sizes = c.sizes
		} else {
			fresh = make([]int, plan.NColors())
		}
	}
	for c := 0; c < plan.NColors(); c++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr // abort the nest between colors
		}
		w.blocks = plan.BlocksOfColor(c)
		w.cursor = 0
		nb := len(w.blocks)
		size := nb
		switch {
		case sizes != nil:
			size = sizes[c]
		case fresh != nil:
			size = max(ex.cfg.Chunker.ChunkSize(nb, workers, w.measure), 1)
			fresh[c] = size
		}
		rest := nb - w.cursor
		if rest <= 0 {
			continue
		}
		if size >= rest {
			w.runBlocks(w.cursor, nb) // one chunk: run it inline
			continue
		}
		w.region.start, w.region.size, w.region.end = w.cursor, size, nb
		if err := w.region.dispatch(pool, (rest+size-1)/size); err != nil {
			return err
		}
	}
	if fresh != nil {
		cal.Store(&colorChunkSizes{ex: ex, workers: workers, sizes: fresh})
	}
	return nil
}
