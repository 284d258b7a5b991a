// Package dist is the owner-compute distributed runtime of op2hpx: the
// OP2 abstraction executed across simulated localities, with goroutines
// standing in for ranks and channel messages for the network — the
// architecture of OP2's MPI backend re-expressed with the paper's
// futures-based latency hiding.
//
// # Rank-local storage
//
// Every set a loop touches is partitioned across the ranks: either for
// real, by a part.Partitioner over registered mesh topology, or derived
// through a map (an edge executes on the rank owning its first cell).
// Each rank numbers a set locally — its owned elements first, in
// ascending global id, then halo slots in the order they were first
// needed — and every dat some loop writes is sharded into one array per
// rank in that numbering, owned values followed by the halo. Maps are
// rewritten per loop and rank to local indices, so a loop's own
// RangeBody runs unchanged over rank-local arrays: each rank binds the
// body (core.Binder) to its arrays once, and the generic-kernel path is
// a binder too. Dats that are only ever read stay replicated (a local
// copy per rank on partitioned sets, refreshed every step that reads
// it). The declaration's global array of a sharded dat is stale while
// shards are live; Dat.Sync flushes the owned blocks back.
//
// # Increments in place
//
// A loop that increments through a map also executes its exec halo on
// every rank: the elements another rank owns that increment a target
// this rank owns. Every owned target therefore receives all of its
// contributions locally, so no increment crosses the wire;
// contributions to halo targets, and the exec halo's global
// reductions, are discarded.
//
// # Compute/communication overlap
//
// Per loop, each rank posts its read-halo exchange as hpx futures,
// executes the elements that read no halo value while the messages are
// in flight, and gates only the rest on halo resolution — the paper's
// thesis (hide latency by letting the runtime schedule around futures)
// applied to distribution. Ranks are persistent workers (one long-lived
// goroutine plus mailbox each, no fork/join per loop), so a rank done
// with loop N pipelines straight into loop N+1.
//
// # Bitwise reproducibility
//
// A rank executes its elements in the serial colored-plan order, so
// each owned target takes its increments in that order. The split
// around the halo gate keeps it: an increment loop runs an element
// after the gate as soon as one of its owned targets has a contributor
// there. Global Inc reductions fold per-element contributions on the
// shared-memory backends' grid: per plan block in element order, then
// the blocks in ascending id (Min/Max combine per-rank partials up a
// binary tree — they are associative, so the tree cannot change the
// result). The distributed airfoil is therefore bitwise-identical to
// the serial backend at every rank count and under every partitioner.
package dist
