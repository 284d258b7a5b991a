// Package op2 is the public entry point of the op2hpx framework: a Go
// reproduction of "Redesigning OP2 Compiler to Use HPX Runtime
// Asynchronous Techniques" (Khatami, Kaiser, Ramanujam, 2017,
// arXiv:1703.09264). It wraps the internal OP2 core and HPX-style runtime
// behind one coherent, stable surface; nothing outside this module's
// internal packages should import internal/core or internal/hpx directly.
//
// A program declares its mesh through the OP2 primitives — sets, maps
// between sets, data on sets (dats) and globals — then creates a Runtime
// with functional options and expresses computation as parallel loops
// with access descriptors:
//
//	rt, err := op2.New(
//		op2.WithBackend(op2.Dataflow),
//		op2.WithPoolSize(8),
//		op2.WithChunker(op2.PersistentAutoChunk()),
//	)
//	defer rt.Close()
//
//	edges, _ := op2.DeclSet(nedge, "edges")
//	...
//	loop := rt.ParLoop("res", edges,
//		op2.DatArg(x, 0, pedge, op2.Read),
//		op2.DatArg(res, 0, pecell, op2.Inc),
//		op2.GblArg(rms, op2.Inc),
//	).Kernel(func(v [][]float64) { ... })
//
//	err = loop.Run(ctx)          // synchronous, cancellable
//	fut := loop.Async(ctx)       // dataflow issue, returns a Future
//
// The three backends of the paper's evaluation — Serial, ForkJoin (the
// "#pragma omp parallel for" baseline) and Dataflow (the paper's
// contribution) — produce identical results; only their scheduling
// differs.
//
// Observability is opt-in and free when off: WithMetrics attaches a
// zero-allocation metrics registry (per-loop and per-fused-group
// latency histograms, step counters, distributed phase/halo series —
// export with Runtime.WriteMetrics in Prometheus text format), and
// WithTracing attaches a fixed-capacity span ring (export with
// Runtime.WriteTrace as Chrome trace_event JSON). Registries and rings
// are shareable across runtimes; cmd/op2serve serves them over HTTP.
//
// Errors are classified by the sentinel values ErrValidation
// (malformed declarations or loop arguments) and ErrCanceled (a context
// canceled a running or pending loop), both testable with errors.Is.
package op2

import (
	"fmt"
	"io"
	"sync"
	"time"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
	"op2hpx/internal/hpx"
	"op2hpx/internal/hpx/sched"
	"op2hpx/internal/obs"
)

// Backend selects how parallel loops execute — the axis the paper's
// evaluation compares.
type Backend = core.Backend

// The three loop-execution backends.
const (
	// Serial executes loops on the calling goroutine.
	Serial = core.Serial
	// ForkJoin is the OpenMP-style baseline: a worker team per loop with
	// an implicit global barrier at the end.
	ForkJoin = core.ForkJoin
	// Dataflow is the paper's contribution: loops consume and produce
	// futures, so independent loops interleave without global barriers.
	Dataflow = core.Dataflow
)

// Chunker controls how many consecutive iterations each task executes
// (§IV-B of the paper). Build one with StaticChunk, EvenChunk, AutoChunk
// or PersistentAutoChunk.
type Chunker = hpx.Chunker

// PersistentAutoChunker is the paper's proposed persistent_auto_chunk_size
// policy: the chunk duration is calibrated once by the first loop and
// reused by every dependent loop. Reset clears the calibration (useful
// between benchmark repetitions).
type PersistentAutoChunker = hpx.PersistentAutoChunker

// StaticChunk returns a chunker with a fixed chunk size
// (hpx static_chunk_size).
func StaticChunk(size int) Chunker { return hpx.StaticChunker(size) }

// EvenChunk divides the iteration space into perWorker chunks per worker;
// EvenChunk(1) reproduces OpenMP static scheduling.
func EvenChunk(perWorker int) Chunker { return hpx.EvenChunker(perWorker) }

// AutoChunk returns a chunker that calibrates each loop independently so
// chunks take roughly a fixed target duration (hpx auto_chunk_size).
func AutoChunk() Chunker { return hpx.AutoChunker() }

// PersistentAutoChunk returns a shared persistent_auto_chunk_size policy
// (§IV-B): pass the same value to WithChunker so all loops of a runtime
// derive their chunk sizes from one persisted chunk duration.
func PersistentAutoChunk() *PersistentAutoChunker { return hpx.NewPersistentAutoChunker() }

// config collects the functional options of New.
type config struct {
	backend     Backend
	poolSize    int
	chunker     Chunker
	blockSize   int
	prefetch    int
	profiling   bool
	ranks       int
	partitioner Partitioner
	maxInFlight int
	haloTimeout time.Duration
	transport   func(ranks int) Transport
	tcp         *TCPConfig
	metrics     *Metrics
	trace       *TraceRing
	traceN      int
}

// Option configures a Runtime.
type Option func(*config)

// WithBackend selects the loop-execution backend (default Serial).
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithPoolSize gives the runtime its own scheduler pool of n workers —
// the paper's --hpx:threads knob. The pool is owned by the runtime and
// shut down by Close. Without this option the process-wide shared pool
// (sized to GOMAXPROCS) is used and Close leaves it running.
func WithPoolSize(n int) Option { return func(c *config) { c.poolSize = n } }

// WithChunker sets the chunk-size policy for every loop of the runtime.
// A nil chunker is a no-op, leaving the per-backend default: even static
// division for ForkJoin (the OpenMP baseline), auto calibration
// otherwise — so callers with an optional chunker can pass it through
// unconditionally.
func WithChunker(ck Chunker) Option { return func(c *config) { c.chunker = ck } }

// WithBlockSize sets the execution-plan block size for indirect loops
// (default 256, like OP2's OpenMP backend).
func WithBlockSize(n int) Option { return func(c *config) { c.blockSize = n } }

// WithPrefetchDistance enables the §V data prefetcher: while one prefetch
// unit of a chunk executes, the next unit's cache lines of every container
// the loop touches are read ahead. d is the prefetch_distance_factor in
// cache lines; 0 disables prefetching.
func WithPrefetchDistance(d int) Option { return func(c *config) { c.prefetch = d } }

// WithProfiling attaches a per-loop profiler to the runtime; retrieve the
// statistics with ProfileStats or WriteProfile.
func WithProfiling() Option { return func(c *config) { c.profiling = true } }

// WithRanks turns the runtime into a distributed one: loops execute
// across n simulated localities under owner-compute semantics — sets are
// partitioned, written dats become owned blocks plus import halos, and
// each loop overlaps its halo exchange with interior computation (see
// the internal/dist package). n == 0 (the default) keeps shared-memory
// execution. Each rank binds a loop's Body (or its generic Kernel) to
// rank-local arrays — owned and halo values in one array per dat, maps
// rewritten to local indices — so the same body serves every backend;
// the declared data stays accessible through Dat.Data after a Sync. Once a loop has
// written a dat, its per-rank shards are authoritative: host writes
// into Data() are no longer observed by later loops (initialize data
// before the first distributed write, or mutate it through loops).
// Loops of a distributed runtime must be issued from a single
// goroutine, the same contract as the Dataflow backend. The
// shared-memory knobs — WithBackend,
// WithPoolSize, WithChunker, WithPrefetchDistance, WithProfiling — do
// not apply to engine-executed loops (ranks are the parallelism and
// chunking follows the plan block size, WithBlockSize).
func WithRanks(n int) Option { return func(c *config) { c.ranks = n } }

// WithMaxInFlightSteps bounds the issue-ahead depth of asynchronous
// pipelines: with a cap of k, the (k+1)-th Async issue of any one Loop
// or Step blocks until that issuer's k-th-previous issue has resolved.
// 0 (the default) leaves issue-ahead unbounded.
//
// An uncapped pipeline that issues far ahead of execution (issue every
// iteration, fence once) grows the issue-state, dependency-node and
// message-buffer pools to the pipeline's peak depth before they start
// recycling — a cold-start cost of ~145 allocs/iteration on a 50-deep
// airfoil pipeline. A small cap (a few steps is enough to keep every
// worker busy) bounds that transient and the memory footprint without
// measurably reducing overlap. The cap is also the backpressure knob the
// simulation service sets per job (see JobSpec.MaxInFlightSteps).
//
// The blocked issue consumes the oldest future without delivering its
// error: a failure still surfaces exactly like an abandoned future, at
// the next Wait, Sync or Fence.
func WithMaxInFlightSteps(k int) Option { return func(c *config) { c.maxInFlight = k } }

// WithPartitioner selects how distributed sets are split across ranks
// (default BlockPartitioner). RCB and greedy partitioning need mesh
// topology: register it per set with Runtime.Partition.
func WithPartitioner(p Partitioner) Option { return func(c *config) { c.partitioner = p } }

// WithHaloTimeout bounds how long a distributed rank waits for any one
// halo exchange (default: forever). A timed-out exchange fails its step
// with ErrHaloTimeout and permanently fails the runtime's engine
// (ErrRankFailed for later submissions) — the failure detector behind
// dropped messages and stalled ranks. Requires WithRanks. Pair it with
// JobSpec.Retry so the service re-runs the job on a fresh runtime.
func WithHaloTimeout(d time.Duration) Option { return func(c *config) { c.haloTimeout = d } }

// WithTransport substitutes the distributed engine's message transport.
// make is a factory, not an instance, because transports are stateful
// and poisoned on permanent failure: every runtime build — in
// particular every recovery attempt of a retried job — must get a fresh
// transport. Requires WithRanks; the internal fault-injection layer is
// the main client.
func WithTransport(make func(ranks int) Transport) Option {
	return func(c *config) { c.transport = make }
}

// Runtime executes OP2 parallel loops under a fixed configuration,
// caching execution plans across invocations of the same loop shape.
//
// Concurrency: under the Serial and ForkJoin backends, loops over
// disjoint data may be invoked from multiple goroutines. Under the
// Dataflow backend every invocation — Async and Run alike — joins the
// version-chain DAG, so all loops of a runtime must be issued from a
// single goroutine: program order of that goroutine is what defines the
// dependency graph (see Loop.Async).
type Runtime struct {
	ex          *core.Executor
	pool        *sched.Pool // owned (created by WithPoolSize); nil when shared
	prof        *core.Profiler
	eng         *dist.Engine // non-nil for distributed runtimes (WithRanks)
	maxInFlight int          // Async issue-ahead cap (WithMaxInFlightSteps)
	metrics     *Metrics     // nil when metrics are off
	trace       *TraceRing   // nil when tracing is off

	// Checkpoint tracking: every dat and global that has appeared in a
	// ParLoop declaration, registered once by pointer (see trackArgs).
	// Runtime.Checkpoint snapshots them; Restore matches by name.
	cpMu   sync.Mutex
	cpSeen map[any]bool
	cpDats []*Dat
	cpGbls []*Global
}

// New builds a runtime from functional options.
func New(opts ...Option) (*Runtime, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if err := applyTCPConfig(&c); err != nil {
		return nil, err
	}
	switch c.backend {
	case Serial, ForkJoin, Dataflow:
	default:
		return nil, fmt.Errorf("%w: unknown backend %v", ErrValidation, c.backend)
	}
	if c.poolSize < 0 {
		return nil, fmt.Errorf("%w: pool size %d < 0", ErrValidation, c.poolSize)
	}
	if c.prefetch < 0 {
		return nil, fmt.Errorf("%w: prefetch distance %d < 0", ErrValidation, c.prefetch)
	}
	if c.ranks < 0 {
		return nil, fmt.Errorf("%w: ranks %d < 0", ErrValidation, c.ranks)
	}
	if c.partitioner != nil && c.ranks == 0 {
		return nil, fmt.Errorf("%w: WithPartitioner requires WithRanks", ErrValidation)
	}
	if c.maxInFlight < 0 {
		return nil, fmt.Errorf("%w: max in-flight steps %d < 0", ErrValidation, c.maxInFlight)
	}
	if c.haloTimeout < 0 {
		return nil, fmt.Errorf("%w: halo timeout %v < 0", ErrValidation, c.haloTimeout)
	}
	if c.haloTimeout > 0 && c.ranks == 0 {
		return nil, fmt.Errorf("%w: WithHaloTimeout requires WithRanks", ErrValidation)
	}
	if c.transport != nil && c.ranks == 0 {
		return nil, fmt.Errorf("%w: WithTransport requires WithRanks", ErrValidation)
	}
	if c.traceN < 0 {
		return nil, fmt.Errorf("%w: trace ring capacity %d < 0", ErrValidation, c.traceN)
	}
	if c.traceN > 0 && c.trace == nil {
		c.trace = obs.NewTraceRing(c.traceN)
	}
	rt := &Runtime{maxInFlight: c.maxInFlight, metrics: c.metrics, trace: c.trace}
	if c.ranks > 0 {
		var tr dist.Transport
		if c.transport != nil {
			tr = c.transport(c.ranks)
		}
		if c.tcp != nil {
			t, err := c.buildTCPTransport()
			if err != nil {
				return nil, err
			}
			tr = t
		}
		eng, err := dist.NewEngine(dist.Config{
			Ranks:       c.ranks,
			Partitioner: c.partitioner,
			BlockSize:   c.blockSize,
			Transport:   tr,
			HaloTimeout: c.haloTimeout,
		})
		if err != nil {
			if cl, ok := tr.(io.Closer); ok {
				cl.Close() //nolint:errcheck // construction failed; best-effort cleanup
			}
			return nil, classify(err)
		}
		rt.eng = eng
		// Bootstrap (TCP rendezvous, HELLO, barrier) happens only now,
		// with the engine's buffer pools already bound: an inbound halo
		// frame can never race the pool binding.
		if err := startTransport(tr); err != nil {
			eng.Close() //nolint:errcheck // bootstrap failed; best-effort teardown
			return nil, fmt.Errorf("op2: transport bootstrap: %w", err)
		}
	}
	if c.poolSize > 0 && rt.eng == nil {
		// Distributed runtimes never execute loops on the shared-memory
		// pool — don't spawn one that would idle for the runtime's life.
		rt.pool = sched.NewPool(c.poolSize)
	}
	rt.ex = core.NewExecutor(core.Config{
		Backend:          c.backend,
		Pool:             rt.pool,
		Chunker:          c.chunker,
		BlockSize:        c.blockSize,
		PrefetchDistance: c.prefetch,
	})
	if c.profiling {
		rt.prof = core.NewProfiler()
		rt.ex.SetProfiler(rt.prof)
	}
	if rt.metrics != nil {
		rt.ex.SetMetrics(rt.metrics)
		if rt.eng != nil {
			rt.eng.SetMetrics(rt.metrics)
		}
	}
	if rt.trace != nil {
		rt.ex.SetTraceRing(rt.trace)
		if rt.eng != nil {
			rt.eng.SetTraceRing(rt.trace)
		}
	}
	return rt, nil
}

// MustNew is New for configurations that cannot fail.
func MustNew(opts ...Option) *Runtime {
	rt, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return rt
}

// Close releases the runtime's owned scheduler pool (a no-op for runtimes
// on the shared pool) and, for distributed runtimes, drains submitted
// loops and stops the rank workers. Loops issued with Async must be
// waited on before Close. Close is idempotent.
func (rt *Runtime) Close() error {
	if rt.eng != nil {
		rt.eng.Close() //nolint:errcheck // drain-only; loop errors were reported to their callers
	}
	if rt.pool != nil {
		rt.pool.Close()
	}
	return nil
}

// Backend reports the configured loop-execution backend.
func (rt *Runtime) Backend() Backend { return rt.ex.Config().Backend }

// PoolSize reports the number of workers executing this runtime's loops.
func (rt *Runtime) PoolSize() int {
	if rt.pool != nil {
		return rt.pool.Size()
	}
	return sched.Default().Size()
}

// StepStats are cumulative step-execution counters of a shared-memory
// runtime: how many steps were issued, how many multi-loop fused passes
// the Dataflow backend ran, and how many loop occurrences those passes
// absorbed — each absorbed occurrence is one loop issue and one full
// memory sweep over the iteration set that did not happen separately.
// Distributed runtimes count step submissions but report zero fusion
// (rank workers execute whole steps; see Runtime.HaloMessagesSent for
// their per-step observable).
type StepStats = core.StepExecStats

// StepStats reports the runtime's cumulative step-execution counters,
// including how many loops the Dataflow backend's direct-loop fusion
// absorbed (see Step.FusedGroups for a plan's static shape).
func (rt *Runtime) StepStats() StepStats {
	st := rt.ex.StepStats()
	if rt.eng != nil {
		st.Steps += rt.eng.StepsRun()
	}
	return st
}

// LoopProfile aggregates the executions of one named loop: invocation
// count, total/mean/min/max wall time, and plan shape for indirect loops.
type LoopProfile = core.LoopStats

// ProfileStats returns the per-loop statistics collected so far, sorted
// by descending total time. It returns nil unless the runtime was built
// with WithProfiling.
func (rt *Runtime) ProfileStats() []LoopProfile {
	if rt.prof == nil {
		return nil
	}
	return rt.prof.Stats()
}

// WriteProfile renders the collected profile as an aligned text table.
func (rt *Runtime) WriteProfile(w io.Writer) error {
	if rt.prof == nil {
		return fmt.Errorf("%w: runtime built without WithProfiling", ErrValidation)
	}
	rt.prof.Render(w)
	return nil
}

// ResetProfile clears the collected statistics.
func (rt *Runtime) ResetProfile() {
	if rt.prof != nil {
		rt.prof.Reset()
	}
}
