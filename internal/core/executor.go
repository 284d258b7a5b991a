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
	// Chunker controls chunk sizes (§IV-B). Nil defaults per backend:
	// ForkJoin uses even static division (the OpenMP baseline), Dataflow
	// uses auto chunk sizing. Pass a *hpx.PersistentAutoChunker shared
	// across loops to reproduce persistent_auto_chunk_size. ForkJoin and
	// Dataflow consult it alike — a calibrating chunker times a probe
	// under either — on every execution of a direct loop or fused pass,
	// but only once per color for a colored loop: on its first execution
	// at a given pool size (see Executor.runColored).
	Chunker hpx.Chunker
	// BlockSize is the plan block size for indirect loops.
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
// aborts between colors and chunks (the serial backend only checks on
// entry: its single range call is indivisible). All per-invocation state
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
	var runErr error
	switch {
	case ex.cfg.Backend == Serial:
		runErr = ex.runSerial(ctx, lr)
	case cl.plan == nil:
		runErr = ex.runDirect(lr)
	default:
		runErr = ex.runColored(ctx, lr)
	}
	if runErr != nil {
		return fmt.Errorf("op2: loop %q: %w", l.Name, runErr)
	}
	lr.finish()
	return nil
}

// runSerial executes the loop on the calling goroutine. Indirect
// modifying loops follow the colored plan — ascending colors, ascending
// blocks within a color — i.e. exactly the element order the parallel
// backends use, so serial and parallel runs of a plan-ordered loop agree
// bitwise. Direct loops run as one contiguous range.
func (ex *Executor) runSerial(ctx context.Context, lr *loopRun) error {
	plan := lr.cl.plan
	if plan == nil {
		lr.ensureSlots(1)
		lr.nslots = 1
		lr.runRange(0, 0, lr.cl.l.Set.size)
		return nil
	}
	lr.ensureSlots(plan.NBlocks())
	lr.nslots = plan.NBlocks()
	for c := 0; c < plan.NColors(); c++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr // abort the nest between colors
		}
		for _, b := range plan.BlocksOfColor(c) {
			lo, hi := plan.Block(b)
			lr.runRange(b, lo, hi)
		}
	}
	return nil
}

// runDirect executes a loop with no indirect modifications: calibrate the
// chunk size by executing the first iterations for real (the way HPX's
// auto_chunk_size folds its measurement into the run), then spread static
// chunks of the remainder across the pool through the compiled region —
// one persistent task closure, no per-invocation policy or future objects.
func (ex *Executor) runDirect(lr *loopRun) error {
	pool := ex.pool()
	workers := pool.Size()
	n := lr.cl.l.Set.size
	lr.blocks = nil // measure() dispatches on this: direct mode
	size := ex.cfg.Chunker.ChunkSize(n, workers, lr.measure)
	if size < 1 {
		size = 1
	}
	cursor := lr.cursor
	if cursor >= n {
		return nil
	}
	if size >= n-cursor {
		lr.ensureSlots(lr.nslots + 1)
		lr.runRange(lr.nslots, cursor, n)
		lr.nslots++
		return nil
	}
	nchunks := (n - cursor + size - 1) / size
	lr.region.start, lr.region.size, lr.region.end, lr.region.slotBase = cursor, size, n, lr.nslots
	lr.ensureSlots(lr.nslots + nchunks)
	lr.nslots += nchunks
	return lr.region.dispatch(pool, nchunks)
}

// runColored executes an indirect loop color by color from its pinned
// plan: blocks within a color are mutually conflict-free and run in
// parallel; a barrier separates colors, exactly like OP2's OpenMP plan
// execution in Fig. 4. Reduction scratches are slotted by block id, so
// the ascending-slot fold reproduces the ascending-range combine.
//
// The chunker is consulted once per color on the loop's first execution
// at a given pool size — a calibrating chunker probes whole blocks,
// executed for real — and the block-chunk sizes are kept on the compiled
// loop. Later executions dispatch each whole color with no probe; a
// different pool size recalibrates.
func (ex *Executor) runColored(ctx context.Context, lr *loopRun) error {
	plan := lr.cl.plan
	pool := ex.pool()
	workers := pool.Size()
	lr.ensureSlots(plan.NBlocks())
	lr.nslots = plan.NBlocks()
	cal := lr.cl.colorChunks.Load()
	if cal != nil && cal.workers != workers {
		cal = nil
	}
	var sizes []int
	if cal == nil {
		sizes = make([]int, plan.NColors())
	}
	for c := 0; c < plan.NColors(); c++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr // abort the nest mid-color sequence
		}
		blocks := plan.BlocksOfColor(c)
		nb := len(blocks)
		lr.blocks = blocks
		lr.cursor = 0
		var size int
		if cal != nil {
			size = cal.sizes[c]
		} else {
			size = max(ex.cfg.Chunker.ChunkSize(nb, workers, lr.measure), 1)
			sizes[c] = size
		}
		if lr.cursor >= nb {
			continue
		}
		if size >= nb-lr.cursor {
			lr.measureBlocks(nb - lr.cursor) // run the remainder inline
			continue
		}
		nchunks := (nb - lr.cursor + size - 1) / size
		lr.region.start, lr.region.size, lr.region.end = lr.cursor, size, nb
		if err := lr.region.dispatch(pool, nchunks); err != nil {
			return err
		}
	}
	lr.blocks = nil
	if cal == nil {
		lr.cl.colorChunks.Store(&colorChunkSizes{workers: workers, sizes: sizes})
	}
	return nil
}
