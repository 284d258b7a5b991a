package dist

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"op2hpx/internal/core"
	"op2hpx/internal/hpx"
	"op2hpx/internal/obs"
	"op2hpx/internal/part"
)

// mailboxDepth bounds how many loops a rank can have queued: the submit
// goroutine blocks once a mailbox fills, which in turn bounds the
// messages in flight per pair (see commDepth).
const mailboxDepth = 16

// TraceFunc observes engine execution phases; used by tests to prove
// compute/communication overlap and by tools to trace progress. It is
// called from rank worker goroutines and must be safe for concurrent use.
// Phases: "interior" (one run executed while the read-halo exchange is
// in flight), "halo" (about to wait for read-halo messages), "boundary"
// (one run executed after the halo gate), "hoist" (an exchange posted
// ahead of its loop).
type TraceFunc func(loop string, rank int, phase string)

// Config configures an Engine.
type Config struct {
	// Ranks is the number of simulated localities (>= 1).
	Ranks int
	// Partitioner assigns set elements to ranks; nil defaults to
	// part.Block.
	Partitioner part.Partitioner
	// BlockSize is the execution-plan block size (it also chunks
	// interior/boundary execution); 0 defaults to core.DefaultBlockSize.
	BlockSize int
	// Transport carries halo messages; nil defaults to an in-process
	// Comm. Tests substitute delaying transports to prove overlap.
	Transport Transport
	// HaloTimeout bounds how long a rank waits for one halo exchange to
	// resolve; 0 (the default) waits forever. A timed-out exchange fails
	// its step with ErrHaloTimeout and permanently fails the engine —
	// the detector behind dropped messages and stalled peers.
	HaloTimeout time.Duration
	// Trace optionally observes execution phases.
	Trace TraceFunc
}

// Engine is the owner-compute distributed runtime: every set is
// partitioned across ranks (for real, or derived through a map), every
// written dat is sharded into per-rank owned blocks plus an import halo
// in one rank-local array, and each rank is one persistent worker
// goroutine with a mailbox that runs each loop's own RangeBody over its
// local arrays.
//
// Per loop, each rank posts its read-halo exchange as futures, executes
// the elements that read no halo value while the messages are in
// flight, and gates only the rest on halo resolution — the paper's
// latency-hiding applied to distribution.
//
// Loops must be submitted from a single goroutine (the same contract as
// the dataflow backend): submission order defines both the per-rank
// execution order and the message matching.
type Engine struct {
	ranks       int
	partitioner part.Partitioner
	blockSize   int
	tr          *countingTransport
	trace       TraceFunc
	haloTimeout time.Duration

	// SPMD mode (see spmd.go): local is the one rank this process hosts
	// (-1 when every rank is an in-process goroutine) and ctl is the
	// transport's control channel for driver-side collectives.
	local int
	ctl   Collective

	// haloTimeouts counts halo exchanges that hit the configured
	// timeout (the op2_dist_halo_timeouts_total observable).
	haloTimeouts atomic.Int64

	// Observability hooks (see obs.go). obsOn folds "any hook attached"
	// into one branch so the disabled hot path pays a single bool load.
	metrics    *obs.Registry
	tracer     *obs.TraceRing
	phaseHists [nPhases]*obs.Histogram
	obsOn      bool
	stepsRun   atomic.Int64 // step submissions (single-loop runs included)

	mu      sync.Mutex
	sets    map[*core.Set]*setPart
	topos   map[*core.Set]*part.Topology
	dats    map[*core.Dat]*localDat // sharded dats
	copies  map[*core.Dat]*localDat // rank-local copies of replicated dats on partitioned sets
	plans   map[string]*loopPlan    // structural key: set + args (see loopKey)
	steps   map[string]*stepPlan    // structural key: joined loop keys (see stepKey)
	builds  int                     // loop plans built (not served from cache)
	fenced  map[*core.Global]bool   // globals whose Sync/Future fence this engine
	tail    *hpx.Future[struct{}]   // completion of the last submitted step
	pending []error                 // loop errors not yet delivered to any caller
	closed  bool
	failErr error // first permanent failure; non-nil rejects new submissions

	// Per-global gating state: the submission counter and, per global,
	// the youngest submission whose driver-side fold writes it. A later
	// step that reads the global gates its workers on that future (see
	// gateLocked); steps over disjoint globals do not gate on each other.
	subSeq     uint64
	lastReduce map[*core.Global]gateRef

	postMu  sync.Mutex // serializes mailbox posting across submitters
	workers []*worker

	// bufs[r] is rank r's message-buffer pool: every halo message a
	// rank sends is packed into a buffer drawn from its own pool and
	// returned there by the receiving rank once the payload has been
	// scattered — receivers know the source rank, so each pool serves
	// its rank's sends. Step plans reserve their traffic when they
	// compile (reserveLocked), so steady-state timesteps allocate no
	// message buffers from the first step (BufferStats is the
	// observable).
	bufs []Pool[float64]

	// subs pools step submissions (tasks, per-rank done LCOs, the
	// submitted loops); a submission recycles itself once its driver — the
	// last toucher — has resolved the step future.
	subs sync.Pool

	// foldAcc/foldPartials are the driver-side reduction fold scratch,
	// reused across steps (folds serialize: each driver waits the
	// previous step's future before folding).
	foldAcc      []float64
	foldPartials [][]float64
}

// getBuf draws a message buffer from rank r's pool.
func (e *Engine) getBuf(r, n int) []float64 { return e.bufs[r].Get(n) }

// putBuf returns a consumed message buffer to rank r's (the sender's)
// pool.
func (e *Engine) putBuf(r int, b []float64) { e.bufs[r].Put(b) }

// BufferStats reports the engine's message-buffer pooling counters:
// how many buffers were ever allocated (pool misses) and how many were
// handed out in total. Steady-state timesteps keep Allocated flat while
// Requested keeps growing — the observable the buffer-reuse tests pin.
type BufferStats struct {
	Allocated int64
	Requested int64
}

// BufferStats sums the per-rank pool counters.
func (e *Engine) BufferStats() BufferStats {
	var st BufferStats
	for r := range e.bufs {
		ps := e.bufs[r].Stats()
		st.Allocated += ps.Misses
		st.Requested += ps.Gets
	}
	return st
}

// countingTransport decorates the engine's transport with a message
// counter, the observable behind Engine.MessagesSent: tests assert that
// step-coalesced exchanges post strictly fewer messages than
// loop-at-a-time issue, and the experiment harness reports
// messages/iteration.
type countingTransport struct {
	inner Transport
	sent  atomic.Int64
}

func (c *countingTransport) Size() int { return c.inner.Size() }

func (c *countingTransport) Send(src, dst int, payload []float64) error {
	c.sent.Add(1)
	return c.inner.Send(src, dst, payload)
}

func (c *countingTransport) Recv(dst, src int) RecvFuture {
	return c.inner.Recv(dst, src)
}

// NewEngine builds a distributed engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Ranks < 1 {
		return nil, invalidf("engine needs >= 1 rank, got %d", cfg.Ranks)
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = part.Block{}
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = core.DefaultBlockSize
	}
	if cfg.Transport == nil {
		cfg.Transport = NewComm(cfg.Ranks)
	}
	if cfg.Transport.Size() != cfg.Ranks {
		return nil, invalidf("transport has %d ranks, engine has %d", cfg.Transport.Size(), cfg.Ranks)
	}
	e := &Engine{
		ranks:       cfg.Ranks,
		partitioner: cfg.Partitioner,
		blockSize:   cfg.BlockSize,
		tr:          &countingTransport{inner: cfg.Transport},
		trace:       cfg.Trace,
		haloTimeout: cfg.HaloTimeout,
		local:       -1,
		sets:        map[*core.Set]*setPart{},
		topos:       map[*core.Set]*part.Topology{},
		dats:        map[*core.Dat]*localDat{},
		copies:      map[*core.Dat]*localDat{},
		plans:       map[string]*loopPlan{},
		steps:       map[string]*stepPlan{},
		fenced:      map[*core.Global]bool{},
		lastReduce:  map[*core.Global]gateRef{},
	}
	if rt, ok := cfg.Transport.(RankedTransport); ok {
		// SPMD mode: this process hosts exactly one rank; the others run
		// in peer processes behind the transport (see spmd.go).
		e.local = rt.LocalRank()
		e.ctl = rt
		if e.local < 0 || e.local >= cfg.Ranks {
			return nil, invalidf("transport hosts rank %d, engine has ranks [0,%d)", e.local, cfg.Ranks)
		}
	}
	e.bufs = make([]Pool[float64], cfg.Ranks)
	if pb, ok := cfg.Transport.(PoolBinder); ok {
		pb.BindBufferPool(e.getBuf, e.putBuf)
	}
	e.workers = make([]*worker, cfg.Ranks)
	for r := range e.workers {
		if e.local >= 0 && r != e.local {
			continue // hosted by a peer process
		}
		w := &worker{
			rank: r, eng: e, mail: make(chan *task, mailboxDepth),
			sendSeq: make([]uint64, cfg.Ranks),
			recvSeq: make([]uint64, cfg.Ranks),
		}
		e.workers[r] = w
		go w.run()
	}
	return e, nil
}

// Ranks reports the number of localities.
func (e *Engine) Ranks() int { return e.ranks }

// PlanCount reports the number of cached distributed loop plans
// (structural keys — inline-declared loops with identical shapes share
// one).
func (e *Engine) PlanCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.plans)
}

// StepsRun reports how many step submissions the engine has executed —
// single-loop Run/RunAsync calls submit one-loop steps and count too.
func (e *Engine) StepsRun() int64 { return e.stepsRun.Load() }

// PlanBuilds reports how many loop plans were actually built (cache
// misses) over the engine's lifetime — the observable behind the
// per-dat invalidation tests: re-sharding one dat must not rebuild
// unrelated loops' plans.
func (e *Engine) PlanBuilds() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.builds
}

// MessagesSent reports the total read-halo messages posted to the
// transport since the engine was created.
func (e *Engine) MessagesSent() int64 { return e.tr.sent.Load() }

// HaloTimeouts reports how many halo exchanges hit the engine's
// configured HaloTimeout.
func (e *Engine) HaloTimeouts() int64 { return e.haloTimeouts.Load() }

// Failed reports the engine's first permanent failure, or nil while it
// is healthy. A failed engine rejects every new submission fast with
// ErrRankFailed; data already flushed to host storage stays readable.
func (e *Engine) Failed() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failErr
}

// failPermanent marks the engine permanently failed (first cause wins)
// and poisons the transport, resolving every pending receive on every
// rank: a rank blocked on a message from a crashed peer unblocks with a
// typed error instead of deadlocking, and every later submission rejects
// fast with ErrRankFailed. Called by a rank worker when a step fails for
// any reason other than cancellation — a kernel panic, a send failure,
// a halo timeout, a corrupt frame — all of which leave sharded state
// (and the per-pair message FIFOs) torn beyond repair.
func (e *Engine) failPermanent(cause error) {
	e.mu.Lock()
	if e.failErr != nil {
		e.mu.Unlock()
		return
	}
	e.failErr = cause
	e.mu.Unlock()
	if p, ok := e.tr.inner.(Poisoner); ok {
		p.Poison(cause)
	}
}

// rejectFailedLocked builds the fast-reject error for a submission on a
// failed engine. Both the rejection class (ErrRankFailed) and the
// original failure's class stay testable with errors.Is: a caller that
// only ever sees the fast-reject — common when the typed verdict was
// delivered to an abandoned pipeline future — can still tell a timeout
// from a corrupt frame. e.mu must be held; the caller unlocks and
// records it.
func (e *Engine) rejectFailedLocked() error {
	return fmt.Errorf("%w: engine disabled after permanent failure: %w", ErrRankFailed, e.failErr)
}

// Fence blocks until every submitted loop and step has completed —
// reduction folds included — and
// reports the first loop error no caller has observed yet.
func (e *Engine) Fence() error { return e.waitTail() }

// PartitionerName reports the configured partitioner.
func (e *Engine) PartitionerName() string { return e.partitioner.Name() }

// RegisterTopology attaches mesh information (geometry, adjacency) to a
// set and partitions it immediately with the configured partitioner.
// Call it before the first loop over the set; partitioning an
// already-partitioned set is an error.
func (e *Engine) RegisterTopology(set *core.Set, topo *part.Topology) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return invalidf("engine is closed")
	}
	if e.sets[set] != nil {
		return invalidf("set %q is already partitioned", set.Name())
	}
	if topo == nil {
		topo = part.NewTopology(set.Size())
	}
	if topo.N != set.Size() {
		return invalidf("topology has %d elements, set %q has %d", topo.N, set.Name(), set.Size())
	}
	e.topos[set] = topo
	_, err := e.ensureRealPartLocked(set)
	return err
}

// ensureRealPartLocked partitions set with the configured partitioner
// (using registered topology when available).
func (e *Engine) ensureRealPartLocked(set *core.Set) (*setPart, error) {
	if sp := e.sets[set]; sp != nil {
		return sp, nil
	}
	topo := e.topos[set]
	if topo == nil {
		topo = part.NewTopology(set.Size())
		e.topos[set] = topo
	}
	owner, err := e.partitioner.Partition(e.ranks, topo)
	if err != nil {
		return nil, invalidf("partitioning set %q with %s: %v (register mesh topology before the first loop)",
			set.Name(), e.partitioner.Name(), err)
	}
	sp := &setPart{set: set, owner: owner, method: e.partitioner.Name(), local: make([]int32, set.Size())}
	sp.finish(e.ranks)
	e.sets[set] = sp
	return sp, nil
}

// derivePartLocked aligns set with an already-partitioned target: each
// element is executed by the rank owning its first map target, so
// indirect accesses through slot 0 are always local.
func (e *Engine) derivePartLocked(set *core.Set, m *core.Map, target *setPart) *setPart {
	owner := make([]int32, set.Size())
	for el := range owner {
		owner[el] = target.owner[m.At(el, 0)]
	}
	sp := &setPart{
		set: set, owner: owner, derived: true,
		method: fmt.Sprintf("derived(%s)", m.Name()),
		local:  make([]int32, set.Size()),
	}
	sp.finish(e.ranks)
	e.sets[set] = sp
	return sp
}

// ensureShardedLocked moves a dat into owned+halo storage, scattering the
// declaration's (still authoritative) global values into the owned
// blocks and installing the Sync flush that writes them back.
func (e *Engine) ensureShardedLocked(d *core.Dat) (*localDat, error) {
	if sd := e.dats[d]; sd != nil {
		return sd, nil
	}
	sp := e.sets[d.Set()]
	if sp == nil {
		return nil, invalidf("dat %q: set %q is not partitioned", d.Name(), d.Set().Name())
	}
	dim := d.Dim()
	sd := &localDat{d: d, sp: sp, sharded: true, vals: make([][]float64, e.ranks)}
	global := d.Data()
	for r := 0; r < e.ranks; r++ {
		ids := sp.owned[r]
		buf := make([]float64, len(ids)*dim)
		for i, id := range ids {
			copy(buf[i*dim:(i+1)*dim], global[int(id)*dim:(int(id)+1)*dim])
		}
		sd.vals[r] = buf
	}
	e.dats[d] = sd
	delete(e.copies, d)
	if r := e.local; r >= 0 {
		// A flush allgathers the owned blocks (gatherFlush) dat after
		// dat, so a peer's next shard can arrive before this rank has
		// consumed the current one, and a written frame may not be back
		// in the pool yet when the next dat's is framed: reserve
		// pipelineDepth inbound shards per peer and outbound frames.
		for s := 0; s < e.ranks; s++ {
			if s != r {
				e.bufs[s].Reserve(pipelineDepth, len(sp.owned[s])*dim)
			}
		}
		if fr, ok := e.tr.inner.(FrameReserver); ok {
			fr.ReserveFrames(pipelineDepth*(e.ranks-1), len(sp.owned[r])*dim)
		}
	}
	d.SetFlush(func() error { return e.flushDat(sd) })
	d.SetScatter(func() error { return e.scatterDat(sd) })
	// Per-dat invalidation: only the plans that read THIS dat from its
	// (now stale) global storage are rebuilt against the shards;
	// unrelated loops' plans survive.
	for l, lp := range e.plans {
		for _, rd := range lp.repl {
			if rd == d {
				delete(e.plans, l)
				break
			}
		}
	}
	for k, sp := range e.steps {
		for _, rd := range sp.repl {
			if rd == d {
				delete(e.steps, k)
				break
			}
		}
	}
	return sd, nil
}

// copyLocked returns the rank-local copy of replicated dat d, creating it
// on first use, or nil when d's set is not partitioned: loops then index
// the host array with global ids, and maps into the set stay global.
func (e *Engine) copyLocked(d *core.Dat) *localDat {
	sp := e.sets[d.Set()]
	if sp == nil {
		return nil
	}
	c := e.copies[d]
	if c == nil {
		c = &localDat{d: d, sp: sp, vals: make([][]float64, e.ranks)}
		e.copies[d] = c
	}
	return c
}

// waitTail blocks until every submitted loop (including its reduction
// apply) has completed — the engine-side host fence. It reports the
// first loop error no caller has observed yet: a failed Async loop
// whose future was abandoned still surfaces at the next Dat/Global
// Sync, matching the shared-memory dataflow backend where failures
// propagate through the version chain. Errors already returned by a
// synchronous Run are not reported twice.
func (e *Engine) waitTail() error {
	e.mu.Lock()
	tail := e.tail
	e.mu.Unlock()
	if tail != nil {
		tail.Wait() //nolint:errcheck // the pending list below carries undelivered errors
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failErr != nil {
		// A permanently failed engine must fail its fence: anything
		// gated on the fence (checkpoints above all) would otherwise
		// capture the half-stepped state of a failed run as if it were
		// consistent. The cause stays in the chain so errors.Is keeps
		// seeing the original typed fault.
		e.pending = nil
		return fmt.Errorf("%w: fence on permanently failed engine: %w", ErrRankFailed, e.failErr)
	}
	if len(e.pending) > 0 {
		err := e.pending[0]
		e.pending = nil
		return err
	}
	return nil
}

// recordError queues a loop failure for the next fence; ackError removes
// it once a synchronous caller has received it.
func (e *Engine) recordError(err error) {
	e.mu.Lock()
	e.pending = append(e.pending, err)
	e.mu.Unlock()
}

// AckError marks a loop error as delivered so the next host fence does
// not report it again. Run calls it automatically; callers that observe
// an Async loop's error through its future should ack it too (the op2
// facade does).
func (e *Engine) AckError(err error) {
	e.mu.Lock()
	for i, p := range e.pending {
		if p == err { //nolint:errorlint // identity: the exact instance recorded for this loop
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
}

// fenceGlobalLocked makes the global's Sync and Future wait for the
// engine: reductions are applied by the driver outside the version
// chain, so without this fence a host read could race the apply.
func (e *Engine) fenceGlobalLocked(g *core.Global) {
	if e.fenced[g] {
		return
	}
	e.fenced[g] = true
	g.SetFlush(e.waitTail)
}

// fenceReplicatedLocked makes a replicated dat's Sync and Future wait
// for the engine: its loops never register in the dat's version chain,
// so without this fence a host could mutate Data() while rank workers
// are still reading it. If the dat is later sharded, ensureShardedLocked
// replaces this with the full flush (which begins with the same wait).
func (e *Engine) fenceReplicatedLocked(d *core.Dat) {
	d.SetFlush(e.waitTail)
}

// flushDat waits for every submitted loop and writes the owned shards
// back into the dat's global storage, making Data() authoritative again.
// In SPMD mode the remote shards are allgathered first (a collective —
// every process flushes the same dats in the same program order), so
// Data() is globally authoritative on every process.
func (e *Engine) flushDat(sd *localDat) error {
	if err := e.waitTail(); err != nil {
		return err
	}
	if e.local >= 0 {
		if err := e.gatherFlush(sd); err != nil {
			e.failPermanent(err)
			return err
		}
	}
	dim := sd.d.Dim()
	global := sd.d.Data()
	for r := 0; r < e.ranks; r++ {
		for i, id := range sd.sp.owned[r] {
			copy(global[int(id)*dim:(int(id)+1)*dim], sd.vals[r][i*dim:(i+1)*dim])
		}
	}
	return nil
}

// scatterDat is the write-direction mirror of flushDat (Dat.Rescatter):
// wait for every submitted loop, then push the host's global storage
// into the owned shards so host writes made after the first scatter are
// observed by later loops. Halo copies on other ranks refresh with the
// next read exchange, which every importing loop or step posts anyway.
// Plans stay valid — ownership did not change — so none is
// invalidated. In SPMD mode no traffic is needed: the host-side global
// storage is replicated identically on every process (flushes gather,
// folds gather), so each process refreshes its shards from its own copy.
func (e *Engine) scatterDat(sd *localDat) error {
	if err := e.waitTail(); err != nil {
		return err
	}
	dim := sd.d.Dim()
	global := sd.d.Data()
	for r := 0; r < e.ranks; r++ {
		for i, id := range sd.sp.owned[r] {
			copy(sd.vals[r][i*dim:(i+1)*dim], global[int(id)*dim:(int(id)+1)*dim])
		}
	}
	return nil
}

// Run executes the loop collectively across all ranks and returns once
// every rank (and the reduction combine) has completed. Internally a
// single loop is a one-loop Step.
func (e *Engine) Run(ctx context.Context, l *core.Loop) error {
	return e.RunStep(ctx, l.Name, []*core.Loop{l})
}

// RunAsync submits the loop — a one-loop Step — and returns its
// completion future. Loops pipeline: a rank that finished its share of
// loop N proceeds to loop N+1 while other ranks are still in N —
// messages stay matched because every pair's channel is FIFO and every
// worker processes loops in submission order.
func (e *Engine) RunAsync(ctx context.Context, l *core.Loop) *hpx.Future[struct{}] {
	return e.RunStepAsync(ctx, l.Name, []*core.Loop{l})
}

// RunStep executes the step collectively across all ranks and returns
// once every rank and the reduction folds have completed. The returned error — the first of any
// member loop — is marked delivered, so the next fence does not report
// it again.
func (e *Engine) RunStep(ctx context.Context, name string, loops []*core.Loop) error {
	err := e.RunStepAsync(ctx, name, loops).Wait()
	if err != nil {
		e.AckError(err) // delivered here; don't re-report at the next fence
	}
	return err
}

// RunStepAsync submits every loop of the step as one unit and returns a
// single future for the whole step: it resolves once every rank has
// finished every member loop and the driver has folded the step's
// reductions, and it carries the first error of any member loop.
// Building the step's plan hands the engine the full dataflow DAG,
// which is what enables the cross-loop optimizations: read-halo
// exchanges coalesced across loops sharing a dat's halo, and posted as
// soon as their dats are final (see stepPlan).
func (e *Engine) RunStepAsync(ctx context.Context, name string, loops []*core.Loop) *hpx.Future[struct{}] {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		err := invalidf("engine is closed")
		e.recordError(err) // surfaces at the next fence even if the future is abandoned
		return hpx.MakeErr[struct{}](err)
	}
	if e.failErr != nil {
		err := e.rejectFailedLocked()
		e.mu.Unlock()
		e.recordError(err)
		return hpx.MakeErr[struct{}](err)
	}
	sp, err := e.stepPlanLocked(name, loops)
	if err != nil {
		e.mu.Unlock()
		e.recordError(err) // ditto: an abandoned plan-error future must not vanish
		return hpx.MakeErr[struct{}](err)
	}
	return e.submitLocked(ctx, sp, loops)
}

// RunStepHandle is RunStep over a compiled handle: the step executes
// without re-deriving its structural key or re-validating its loops.
func (e *Engine) RunStepHandle(ctx context.Context, h *StepHandle) error {
	err := e.RunStepHandleAsync(ctx, h).Wait()
	if err != nil {
		e.AckError(err) // delivered here; don't re-report at the next fence
	}
	return err
}

// RunStepHandleAsync submits a compiled step. The handle's plan pointer
// is revalidated against the cache with its pinned key — one map lookup
// instead of key construction plus validation — and rebuilt only when
// re-sharding invalidated it.
func (e *Engine) RunStepHandleAsync(ctx context.Context, h *StepHandle) *hpx.Future[struct{}] {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		err := invalidf("engine is closed")
		e.recordError(err)
		return hpx.MakeErr[struct{}](err)
	}
	if e.failErr != nil {
		err := e.rejectFailedLocked()
		e.mu.Unlock()
		e.recordError(err)
		return hpx.MakeErr[struct{}](err)
	}
	if e.steps[h.key] != h.sp {
		// Re-sharding a replicated dat dropped the plan; rebuild it.
		sp, err := e.stepPlanLocked(h.name, h.loops)
		if err != nil {
			e.mu.Unlock()
			e.recordError(err)
			return hpx.MakeErr[struct{}](err)
		}
		h.sp = sp
	}
	return e.submitLocked(ctx, h.sp, h.loops)
}

// submission is the pooled per-step dispatch state: one task per rank
// (each a pointer into the embedded slice), the per-rank completion LCOs
// the driver collects, and the submitted loops. Loops travel per
// submission (plans are structural and shared by same-shaped loops), so
// each rank binds the body of the loop actually submitted. The driver is the last toucher of every pooled
// field — all rank LCOs resolved means all workers are done with their
// tasks — so it recycles the submission right after resolving the step
// future (which is NOT pooled: it outlives the submission as the engine
// tail, the next step's gate and the caller's handle).
type submission struct {
	eng     *Engine
	ctx     context.Context
	sp      *stepPlan
	loops   []*core.Loop
	gate    hpx.Waiter            // youngest global-hazard future (gateLocked), or nil
	parity  int                   // which of the plan's two reduction-buffer sets this submission uses
	prev    *hpx.Future[struct{}] // previous step future (driver ordering)
	pStep   *hpx.Promise[struct{}]
	tasks   []task
	dones   []rankDone
	driveFn func() // cached driver entry point
}

// rankDone is one rank's completion slot: the worker stores its
// per-occurrence reduction buffers and resolves the LCO with its error.
type rankDone struct {
	lco  hpx.LCO
	bufs [][]float64
}

func (e *Engine) getSubmission() *submission {
	sub, _ := e.subs.Get().(*submission)
	if sub == nil {
		sub = &submission{eng: e, tasks: make([]task, e.ranks), dones: make([]rankDone, e.ranks)}
		for r := range sub.tasks {
			sub.tasks[r].sub = sub
			sub.tasks[r].rank = r
		}
		sub.driveFn = sub.drive
	}
	for r := range sub.dones {
		sub.dones[r].lco.ResetFresh()
		sub.dones[r].bufs = nil
	}
	return sub
}

// gateRef points at one submission's step future, tagged with its
// submission sequence number so "youngest hazard" comparisons are O(1).
type gateRef struct {
	f   *hpx.Future[struct{}]
	seq uint64
}

// gateLocked computes the one future this submission's workers must wait
// for before touching global state, and records the submission as the new
// last reducer of every global it reduces. The worker-side hazards a
// reducing or global-reading step can race are exactly:
//
//   - a body reading a global (a Read global arg) vs. the driver-side fold of
//     an EARLIER submission that reduces that global — gate on the
//     global's last reducer;
//   - the per-rank reduction buffers (stepRank.redBuf/redOut), two sets
//     used by alternate invocations of the same plan, vs. the driver
//     fold of the plan's invocation before last still reading the same
//     set — gate on that submission. The fold of the previous
//     invocation thus overlaps this one's execution.
//
// Everything else is already ordered: drivers fold serially (each waits
// the previous step future before folding), so write-after-read and
// fold-after-fold on a shared global cannot race worker execution. Step
// futures resolve in submission order, so gating on the youngest
// candidate subsumes every older one — steps whose members touch
// disjoint globals therefore no longer gate on the previous tail and
// reduction-bearing jobs pipeline deeper.
func (e *Engine) gateLocked(sp *stepPlan, fStep *hpx.Future[struct{}]) (gate hpx.Waiter, parity int) {
	e.subSeq++
	parity = int(sp.subs & 1)
	sp.subs++
	var g gateRef
	if len(sp.gblReduces) > 0 && sp.lastSub[parity].seq > g.seq {
		g = sp.lastSub[parity]
	}
	for _, gl := range sp.gblReads {
		if r := e.lastReduce[gl]; r.seq > g.seq {
			g = r
		}
	}
	if len(sp.gblReduces) > 0 {
		ref := gateRef{f: fStep, seq: e.subSeq}
		sp.lastSub[parity] = ref
		for _, gl := range sp.gblReduces {
			e.lastReduce[gl] = ref
		}
	}
	if g.f == nil {
		return nil, parity
	}
	return g.f, parity
}

// submitLocked finishes a step submission with e.mu held (and releases
// it): swap the engine tail, post one task per rank in rank order, and
// spawn the driver that folds reductions and resolves the step future.
func (e *Engine) submitLocked(ctx context.Context, sp *stepPlan, loops []*core.Loop) *hpx.Future[struct{}] {
	e.stepsRun.Add(1)
	prev := e.tail
	pStep, fStep := hpx.NewPromise[struct{}]()
	e.tail = fStep
	gate, parity := e.gateLocked(sp, fStep)
	e.mu.Unlock()

	sub := e.getSubmission()
	sub.ctx, sub.sp, sub.prev, sub.pStep = ctx, sp, prev, pStep
	sub.loops = append(sub.loops[:0], loops...)
	sub.gate, sub.parity = gate, parity
	// Post in rank order under postMu so concurrent submitters cannot
	// interleave two steps' tasks differently on different mailboxes.
	// In SPMD mode only the local rank has a worker; the peers' workers
	// receive the same task from their own processes' submissions.
	e.postMu.Lock()
	for r := range sub.tasks {
		if e.workers[r] == nil {
			continue
		}
		e.workers[r].mail <- &sub.tasks[r]
	}
	e.postMu.Unlock()

	go sub.driveFn()
	return fStep
}

// drive collects the per-rank completions in rank order, folds the
// step's reductions, resolves the step future and recycles the
// submission.
func (sub *submission) drive() {
	e, sp := sub.eng, sub.sp
	if sub.prev != nil {
		sub.prev.Wait() //nolint:errcheck // ordering only: this step reports its own errors
	}
	var firstErr error
	for r := range sub.dones {
		if e.local >= 0 && r != e.local {
			continue // peer-process ranks report through their own engines
		}
		if err := sub.dones[r].lco.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		// Fold each occurrence's reduction buffers in step order. The
		// fold scratch on the engine is safe to reuse: drivers serialize
		// on the previous step's future. In SPMD mode rank 0 folds the
		// gathered partials and broadcasts the result (reduceSPMD), so
		// the globals stay bitwise-identical everywhere.
		if cap(e.foldPartials) < e.ranks {
			e.foldPartials = make([][]float64, e.ranks)
		}
		bufs := e.foldPartials[:e.ranks]
		for o, lp := range sp.loops {
			if lp.gbl.size == 0 {
				continue
			}
			if e.local >= 0 {
				if err := e.reduceSPMD(sub, o, lp, bufs); err != nil {
					// A torn collective leaves the control FIFO (and the
					// peers' fold state) unrecoverable — same class as a
					// torn halo exchange.
					e.failPermanent(err)
					firstErr = err
					break
				}
				continue
			}
			for r := range bufs {
				bufs[r] = sub.dones[r].bufs[o]
			}
			lp.applyAcc(e.foldReductions(lp, bufs))
		}
	}
	pStep := sub.pStep
	// Recycle before resolving: all rank LCOs resolved, so every worker
	// is done with its task; resolving first would let the next
	// submission's driver race this recycling. (The order is safe either
	// way — the pool is concurrency-safe — but resetting pooled fields
	// after handing the object back would not be.)
	sub.ctx, sub.sp, sub.prev, sub.pStep, sub.gate = nil, nil, nil, nil, nil
	clear(sub.loops)
	e.subs.Put(sub)
	if firstErr != nil {
		e.recordError(firstErr) // before resolving, so RunStep can ack it
		pStep.SetErr(firstErr)
		return
	}
	pStep.Set(struct{}{})
}

// foldReductions folds the per-rank reduction buffers into one
// accumulator (the engine's fold scratch). Inc reductions fold
// per-element contributions in the serial plan order — bitwise-identical
// to the serial backend for kernels that accumulate once per element —
// while pure Min/Max reductions combine per-rank partials up a binary
// tree (min and max are associative, so the tree shape cannot change
// the result).
func (e *Engine) foldReductions(lp *loopPlan, bufs [][]float64) []float64 {
	size := lp.gbl.size
	// Fold scratch is engine-level and reused: folds serialize on the
	// previous step's future (see drive).
	if cap(e.foldAcc) < size {
		e.foldAcc = make([]float64, size)
	}
	acc := e.foldAcc[:size]
	copy(acc, lp.gbl.init)
	if lp.needElementwise {
		for _, el := range lp.foldOrder {
			r, li := lp.itsp.owner[el], int(lp.itsp.local[el])
			s := bufs[r][li*size : (li+1)*size]
			if !lp.gbl.allInc {
				lp.combineScratch(acc, s)
				continue
			}
			for k, v := range s {
				acc[k] += v
			}
		}
	} else {
		// Tree combine across rank partials.
		partials := make([][]float64, e.ranks)
		for r := range partials {
			if bufs[r] != nil {
				partials[r] = bufs[r]
			} else {
				p := make([]float64, size)
				copy(p, lp.gbl.init)
				partials[r] = p
			}
		}
		for stride := 1; stride < e.ranks; stride *= 2 {
			for r := 0; r+stride < e.ranks; r += 2 * stride {
				lp.combineScratch(partials[r], partials[r+stride])
			}
		}
		lp.combineScratch(acc, partials[0])
	}
	return acc
}

// applyAcc folds a reduction accumulator into the global variables.
func (lp *loopPlan) applyAcc(acc []float64) {
	for i, a := range lp.l.Args {
		if off := lp.gbl.offs[i]; off >= 0 {
			dim := a.Global().Dim()
			core.ReduceCombine(a.Acc(), a.Global().Data()[:dim], acc[off:off+dim])
		}
	}
}

// combineScratch folds scratch s into acc, argument by argument, with
// the same merge definition every backend shares (core.ReduceCombine).
func (lp *loopPlan) combineScratch(acc, s []float64) {
	for i, a := range lp.l.Args {
		if off := lp.gbl.offs[i]; off >= 0 {
			dim := a.Global().Dim()
			core.ReduceCombine(a.Acc(), acc[off:off+dim], s[off:off+dim])
		}
	}
}

// Close drains submitted loops and stops the rank workers. Idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	tail := e.tail
	e.mu.Unlock()
	if tail != nil {
		tail.Wait() //nolint:errcheck // draining; loop errors were reported to their callers
	}
	for _, w := range e.workers {
		if w == nil {
			continue
		}
		close(w.mail)
	}
	if e.local >= 0 {
		// The engine owns a ranked (process-spanning) transport: tear it
		// down so peers see a clean GOODBYE instead of a vanished conn.
		if c, ok := e.tr.inner.(io.Closer); ok {
			_ = c.Close()
		}
	}
	return nil
}

// SetStats reports one partitioned set: how many elements each rank owns,
// how large each rank's import halo has grown, and — when the set was
// partitioned for real over a registered topology — the edge-cut and
// imbalance of the partition.
type SetStats struct {
	Set       string
	Method    string
	Derived   bool
	Owned     []int
	Halo      []int
	EdgeCut   int // -1 when no adjacency is known
	Imbalance float64
}

// Stats returns the partitioning state of every set the engine has seen,
// sorted by set name.
func (e *Engine) Stats() []SetStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SetStats, 0, len(e.sets))
	for set, sp := range e.sets {
		st := SetStats{
			Set:       set.Name(),
			Method:    sp.method,
			Derived:   sp.derived,
			Owned:     make([]int, e.ranks),
			Halo:      make([]int, e.ranks),
			EdgeCut:   -1,
			Imbalance: part.Imbalance(sp.owner, e.ranks),
		}
		for r := 0; r < e.ranks; r++ {
			st.Owned[r] = len(sp.owned[r])
			st.Halo[r] = len(sp.haloIDs[r])
		}
		if topo := e.topos[set]; topo != nil && topo.HasAdjacency() {
			st.EdgeCut = part.EdgeCut(sp.owner, topo)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Set < out[j].Set })
	return out
}
