// Package op2hpx is a Go reproduction of "Redesigning OP2 Compiler to Use
// HPX Runtime Asynchronous Techniques" (Khatami, Kaiser, Ramanujam, 2017,
// arXiv:1703.09264): the OP2 unstructured-mesh framework retargeted from
// OpenMP-style fork-join loops to an HPX-style asynchronous runtime with
// futures, dataflow dependency chaining, dynamic chunk sizing
// (persistent_auto_chunk_size) and a data-prefetching iterator.
//
// The supported entry point is the public op2 package ("op2hpx/op2"): a
// Runtime built with functional options (op2.WithBackend, op2.WithPoolSize,
// op2.WithChunker, op2.WithPrefetchDistance, op2.WithProfiling), OP2
// declarations (op2.DeclSet/DeclMap/DeclDat/DeclGlobal), and a declarative
// loop builder (Runtime.ParLoop(...).Kernel(...).Run(ctx) / .Async(ctx))
// with context cancellation and the typed sentinel errors op2.ErrValidation
// and op2.ErrCanceled. The loops of one timestep are declared as a unit
// with Runtime.Step(...).Then(loop)... and issued with step.Run/Async —
// building a Step computes the cross-loop dataflow DAG once, which the
// dataflow backend uses to interleave independent loops eagerly (and to
// fuse adjacent direct loops over the same set into one pass — see
// Step.FusedGroups and Runtime.StepStats) and the distributed engine
// uses to coalesce read-halo exchanges across loops sharing a dat's
// halo and to post them as soon as their dats are final. Nothing
// outside internal/ should import the
// implementation packages directly.
//
// The steady-state issue path is compiled and allocation-free: a loop's
// first execution builds a CompiledLoop (pinned plan, reduction-scratch
// layout, classified resources, prefetcher, pooled run state) cached on
// the loop, after which a synchronous direct-loop invocation performs
// zero heap allocations on the Serial and Dataflow backends. The
// asynchronous path matches it: futures are intrusive wait-list LCOs
// (hpx.LCO), an Async issue borrows a pooled issue state, links
// continuations onto its predecessors' wait-lists instead of parking a
// dependency-wait goroutine, and recycles once consumed — a steady-state
// Async issue-and-wait is 0 allocs/op too, a pipelined step.Async
// timestep costs a few allocations (down from ~112), and distributed
// timesteps pack every halo message into per-rank pooled buffers
// (Runtime.HaloBufferStats observes the reuse). The regressions are
// enforced by tests and recorded in BENCH_hotpath.json.
//
// op2.WithRanks(n) switches a runtime to the owner-compute distributed
// engine: sets are partitioned across n simulated localities
// (op2.WithPartitioner selects block / RCB / greedy graph-growing, and
// Runtime.Partition registers mesh topology like OP2's op_partition),
// written dats become per-rank owned-plus-halo arrays, and each rank
// runs the loop's own range body over them — maps rewritten to local
// indices, increments applied in place with the exec halo executed
// redundantly — overlapping its halo exchange with interior computation
// while staying bitwise-identical to the serial backend. Host writes into
// Dat.Data() after the first distributed write propagate to the rank
// shards with Dat.Rescatter; Runtime.Fence drains every submitted loop
// and step.
//
// op2.WithTCPTransport(op2.TCPConfig{...}) replaces the in-process
// loopback with a real TCP transport (internal/net): each rank is a
// separate OS process running the same program SPMD-style
// (Runtime.LocalRank names its partition), connected by a framed wire
// protocol that serializes the pooled halo buffers with zero
// steady-state allocations. Ranks bootstrap in any order (bounded dial
// retry, HELLO identity + job-signature exchange, world barrier), every
// connection carries heartbeats feeding a liveness prober, and a
// connection lost after bootstrap is never retried — it converges to
// the same typed taxonomy as the in-process fault suite, with ABORT
// propagation so survivors fail fast on the root cause and GOODBYE
// distinguishing teardown from a crash. cmd/op2rank is the per-rank
// daemon (health endpoints /healthz /livez /readyz /stats /metrics);
// TCP worlds at any rank count stay bitwise-identical to serial.
//
// op2.Service is the simulation-as-a-service control plane: it admits
// whole simulation jobs (op2.JobSpec — runtime options, a Setup
// returning the timestep Step, an iteration count, a Collect) into a
// bounded queue (typed op2.ErrJobQueueFull past capacity), gives each
// resident job an isolated Runtime, and interleaves all jobs' step
// issues round-robin from one scheduler goroutine onto the shared
// worker pool, with a per-job issue-ahead cap (JobSpec.MaxInFlightSteps;
// op2.WithMaxInFlightSteps is the single-runtime knob) providing
// backpressure and fairness. Concurrent jobs on mixed backends and rank
// counts stay bitwise-identical to serial runs (internal/service,
// cmd/op2serve, BENCH_service.json).
//
// The runtime is fault-tolerant end to end. internal/fault injects
// deterministic, scriptable transport faults (drop / delay / duplicate
// / truncate / fail-send / stalled rank, via op2.WithTransport) and
// kernel panics; the distributed engine detects them through per-frame
// sequence tags and the op2.WithHaloTimeout exchange deadline, and every
// fault converges in bounded time to one of the typed sentinels
// op2.ErrHaloTimeout, op2.ErrHaloCorrupt, op2.ErrCommOverflow or
// op2.ErrRankFailed — the first failure poisons the transport, fails
// the engine permanently, and later submissions and fences reject fast
// instead of touching torn state. Recovery is Runtime.Checkpoint /
// Restore (fenced bitwise snapshots that restore onto fresh runtimes of
// any backend or rank count) automated by the service layer:
// JobSpec.Retry, JobSpec.Deadline and JobSpec.CheckpointEvery tear a
// failed attempt down and resume it from the last checkpoint while
// other jobs keep stepping, with recovered results bitwise-identical
// to uninterrupted runs (internal/fault/chaos_test.go and the
// socket-level chaos_tcp_test.go are the randomized, seed-replayable
// proofs). Checkpoints are durable: Checkpoint.WriteTo and
// op2.ReadCheckpoint define a canonical versioned, checksummed file
// format whose every damage mode loads as the typed
// op2.ErrCheckpointCorrupt, and op2.NewDirCheckpoints is the
// file-per-job CheckpointStore the service persists into and resumes
// from across process restarts. Service.Drain is graceful shutdown:
// admission stops, resident jobs cut at a step boundary with the typed
// op2.ErrJobDrained after persisting a drain checkpoint, and a
// restarted service resumes them bitwise (cmd/op2serve wires
// SIGINT/SIGTERM to it).
//
// The implementation lives in the internal packages:
//
//   - internal/hpx        — futures, dataflow, execution policies (Table I),
//     chunkers incl. persistent_auto_chunk_size (§IV-B)
//   - internal/hpx/sched  — work-stealing task pool (the HPX thread pool)
//   - internal/hpx/lco    — Local Control Objects (§III)
//   - internal/hpx/prefetch — the prefetching iterator (§V)
//   - internal/core       — OP2: sets, maps, dats, access descriptors,
//     colored execution plans, and the serial / fork-join / dataflow loop
//     backends (§II, §IV)
//   - internal/airfoil    — the Airfoil CFD evaluation workload (§II-B)
//   - internal/aero       — the FEM/CG workload (per-iteration reductions)
//   - internal/part       — mesh partitioners (block, RCB, greedy) with
//     edge-cut and imbalance metrics
//   - internal/dist       — the owner-compute distributed engine: owned+halo
//     storage, persistent rank workers, overlapped halo exchange,
//     typed fault detection (halo timeouts, frame checks, permanent
//     engine failure)
//   - internal/net        — the TCP rank transport: framed wire protocol
//     over pooled halo buffers, rank bootstrap, heartbeats + liveness,
//     typed failure convergence (cmd/op2rank is the per-rank daemon)
//   - internal/fault      — deterministic fault injection: the scriptable
//     Transport decorator, socket-level faults, rank stalls, kernel Panicker
//   - internal/service    — the simulation-service control plane: job
//     queue + admission, round-robin step scheduler, per-job retirers
//   - internal/translator — the OP2 source-to-source compiler with OpenMP
//     and HPX code generation modes (§II)
//   - internal/experiments — regenerates Table I and Figs. 15-20 (§VI)
//   - internal/analysis   — domain-aware static analyzers (accesscheck,
//     noalloc, futurecontract, lockorder) proving the declared-access,
//     zero-allocation and future-recycling invariants at build time;
//     cmd/op2vet is the driver (`go run ./cmd/op2vet ./...`, wired into CI)
//
// The benchmarks in this package (bench_test.go) provide one testing.B
// entry per application-level table and figure of the paper's evaluation,
// driven through the op2 facade; internal/bench holds the hpx-layer
// micro-benchmarks, and cmd/experiments prints the full tables.
package op2hpx
