package dist

import "fmt"

// This file is the engine's SPMD (single-program-multiple-data) mode:
// the bridge between the in-process engine — every rank a goroutine —
// and rank-per-process execution over a real wire (internal/net).
//
// In SPMD mode every process runs the SAME program with the same Ranks
// count, the same (deterministic) partitioner and the same submission
// order, but hosts exactly one rank: only that rank's worker goroutine
// exists, and only its shards are computed locally. Three places where
// the in-process engine reads other ranks' memory become collectives
// over a second logical wire channel (the control channel, kept apart
// from halo traffic so the two never interleave on a pair's FIFO):
//
//   - reduction folds: rank 0 gathers the per-rank reduction partials,
//     folds them in the in-process engine's order and broadcasts the
//     result, which every process applies — global values stay
//     bitwise-identical everywhere;
//   - Dat flush (Sync): owned shards are allgathered so Data() is
//     globally authoritative on every process;
//   - scatter (Rescatter) needs no traffic at all: the host-side global
//     storage is replicated identically, so each process refreshes its
//     own shards from its own copy.
//
// The collective contract is MPI-like: every process must issue the
// same collectives in the same order. The engine guarantees this by
// construction — drivers serialize on the previous step future and
// flushes fence first — as long as the application is SPMD (the same
// submissions on every process), which is what cmd/op2rank runs.

// Collective is the control-channel half of a process-spanning
// transport: ordered payload exchange between rank processes, separate
// from the halo channel so driver-side collectives can never interleave
// with (and mis-match against) worker-side halo frames on a pair's
// FIFO. SendCtl borrows the payload — the caller keeps ownership and
// the slice is serialized before SendCtl returns — unlike Transport.
// Send, which hands the pooled buffer over.
type Collective interface {
	// SendCtl delivers payload from rank src to rank dst on the control
	// channel without blocking. The payload is only borrowed.
	SendCtl(src, dst int, payload []float64) error
	// RecvCtl returns a future resolving to the next undelivered
	// control-channel message from src to dst.
	RecvCtl(dst, src int) RecvFuture
}

// RankedTransport is a Transport that spans PROCESSES: each process
// hosts exactly one rank (LocalRank) and the transport carries traffic
// to the others. Handing one to NewEngine switches the engine into SPMD
// mode; the engine owns the transport from then on and closes it (clean
// GOODBYE to the peers) when the engine is closed.
type RankedTransport interface {
	Transport
	Collective
	// LocalRank reports which rank this process hosts.
	LocalRank() int
}

// PoolBinder is implemented by transports that serialize payloads from
// and into pooled buffers. The engine binds its per-rank message-buffer
// free lists at construction: inbound payloads from rank r are decoded
// into buffers drawn from pool r — the same pool the worker returns
// them to after scattering (eng.putBuf(src, msg)) — and outbound halo
// payloads are recycled into the sender's pool once serialized onto the
// wire. This closes the zero-allocation cycle across the wire path:
// steady-state timesteps over TCP allocate no new message buffers.
type PoolBinder interface {
	BindBufferPool(get func(rank, n int) []float64, put func(rank int, b []float64))
}

// FrameReserver is implemented by transports that serialize outbound
// payloads into pooled frames of their own: ReserveFrames grows that
// pool to at least n frames able to carry a payload of floats values.
// The engine reserves each step plan's outbound traffic when the plan
// compiles, so the first step already draws every frame from the pool.
type FrameReserver interface {
	ReserveFrames(n, floats int)
}

// LocalRank reports the rank this process hosts in SPMD mode, or -1
// when every rank is an in-process goroutine.
func (e *Engine) LocalRank() int { return e.local }

// TransportImpl exposes the engine's underlying transport (unwrapped
// from the message-counting shim) so the facade can surface
// transport-specific statistics — the TCP wire counters in particular.
func (e *Engine) TransportImpl() Transport { return e.tr.inner }

// partialLen is the exact length of rank r's reduction partial for this
// loop — derived from the shared plan, so sender and receiver agree
// without negotiating (an Inc partial holds one slot per element rank r
// owns, for rank 0 to fold on the plan's block grid; a Min/Max partial
// holds one accumulator).
func (lp *loopPlan) partialLen(r int) int {
	if lp.gbl.size == 0 {
		return 0
	}
	if lp.needElementwise {
		return lp.ranks[r].nOwned * lp.gbl.size
	}
	return lp.gbl.size
}

// reduceSPMD folds one occurrence's reductions across the processes:
// every rank sends its partial to rank 0 (borrowed — the worker's
// reduction scratch stays owned by the plan), rank 0 folds them all as
// the in-process engine does (foldReductions) and broadcasts the folded
// accumulator, and every process applies that same accumulator, so
// global values stay bitwise-identical everywhere. Each partial crosses
// the wire once. Received buffers are drawn from the engine's pools
// through the transport's pool binding and returned once consumed.
func (e *Engine) reduceSPMD(sub *submission, o int, lp *loopPlan, bufs [][]float64) error {
	r := e.local
	clear(bufs)
	defer func() {
		for src, b := range bufs {
			if src != r && b != nil {
				e.putBuf(src, b)
				bufs[src] = nil
			}
		}
	}()
	bufs[r] = sub.dones[r].bufs[o]
	if r != 0 {
		if lp.partialLen(r) > 0 {
			if err := e.ctl.SendCtl(r, 0, bufs[r]); err != nil {
				return fmt.Errorf("dist: step %q reduction partial send %d→0: %w", sub.sp.name, r, err)
			}
		}
		acc, err := e.recvCtl(sub, 0, lp.gbl.size, "reduction result")
		if err != nil {
			return err
		}
		bufs[0] = acc
		lp.applyAcc(acc)
		return nil
	}
	for src := 1; src < e.ranks; src++ {
		if want := lp.partialLen(src); want > 0 {
			msg, err := e.recvCtl(sub, src, want, "reduction partial")
			if err != nil {
				return err
			}
			bufs[src] = msg
		}
	}
	acc := e.foldReductions(lp, bufs)
	for dst := 1; dst < e.ranks; dst++ {
		if err := e.ctl.SendCtl(0, dst, acc); err != nil {
			return fmt.Errorf("dist: step %q reduction result send 0→%d: %w", sub.sp.name, dst, err)
		}
	}
	lp.applyAcc(acc)
	return nil
}

// recvCtl receives the next control message from src and checks it
// carries want floats.
func (e *Engine) recvCtl(sub *submission, src, want int, what string) ([]float64, error) {
	r := e.local
	fut := e.ctl.RecvCtl(r, src)
	msg, err := fut.Get()
	if err != nil {
		return nil, fmt.Errorf("dist: step %q %s recv %d←%d: %w", sub.sp.name, what, r, src, err)
	}
	fut.Release()
	if len(msg) != want {
		e.putBuf(src, msg)
		return nil, fmt.Errorf("dist: step %q %s from rank %d: got %d floats, want %d: %w",
			sub.sp.name, what, src, len(msg), want, ErrHaloCorrupt)
	}
	return msg, nil
}

// gatherFlush allgathers a sharded dat's owned blocks so the host-side
// global storage every process writes in flushDat is complete (and,
// since the exchange is symmetric and the shards deterministic,
// identical on every process). Pairs whose shard is empty are skipped
// on both sides by the same ownership-derived rule.
func (e *Engine) gatherFlush(sd *localDat) error {
	r := e.local
	own := sd.vals[r][:len(sd.sp.owned[r])*sd.d.Dim()]
	for dst := 0; dst < e.ranks; dst++ {
		if dst == r || len(own) == 0 {
			continue
		}
		if err := e.ctl.SendCtl(r, dst, own); err != nil {
			return fmt.Errorf("dist: flush %q shard send %d→%d: %w", sd.d.Name(), r, dst, err)
		}
	}
	for src := 0; src < e.ranks; src++ {
		if src == r {
			continue
		}
		want := len(sd.sp.owned[src]) * sd.d.Dim()
		if want == 0 {
			continue
		}
		fut := e.ctl.RecvCtl(r, src)
		msg, err := fut.Get()
		if err != nil {
			return fmt.Errorf("dist: flush %q shard recv %d←%d: %w", sd.d.Name(), r, src, err)
		}
		if len(msg) != want {
			return fmt.Errorf("dist: flush %q shard from rank %d: got %d floats, want %d: %w",
				sd.d.Name(), src, len(msg), want, ErrHaloCorrupt)
		}
		copy(sd.vals[src], msg)
		e.putBuf(src, msg)
		fut.Release()
	}
	return nil
}
