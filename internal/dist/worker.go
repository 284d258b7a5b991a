package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"op2hpx/internal/core"
	"op2hpx/internal/hpx"
)

// task is one step posted to a rank worker: a pointer into the owning
// submission's per-rank task array. The worker reads the step plan,
// loop snapshot and gate from the submission and reports completion
// through its rank's done slot — all pooled, recycled by the
// submission's driver once every rank has resolved.
type task struct {
	sub  *submission
	rank int
}

// worker is one persistent rank: a long-lived goroutine draining a
// mailbox of step tasks in submission order. There is no fork/join per
// step — a rank that finished step N moves straight on to step N+1. All
// per-step execution scratch is reused across steps, so steady-state
// timesteps allocate neither scratch nor message buffers.
type worker struct {
	rank int
	eng  *Engine
	mail chan *task

	// Per-occurrence scratch, sized to the widest step seen. readFuts[o]
	// holds the read-halo receive futures the exchange posted at slot o
	// consumes at occurrence o (for a hoisted exchange the posting
	// happens earlier than o, which is exactly why the futures are
	// slot-indexed rather than local to execOcc).
	readFuts [][]RecvFuture
	readSrcs [][]int
	readSeqs [][]uint64
	readErr  []error

	// Frame-sequence counters, one per peer rank. Every message this
	// rank sends to dst carries tag ++sendSeq[dst] as its first float;
	// every receive this rank posts from src expects ++recvSeq[src].
	// Per-pair FIFO delivery makes the tags line up, so a duplicated,
	// truncated or reordered message is detected as ErrHaloCorrupt at
	// consume time instead of silently corrupting halo slots. The
	// expected tag is recorded at Recv-post time (readSeqs): a hoisted
	// exchange is consumed later than it is posted.
	sendSeq []uint64
	recvSeq []uint64

	// epoch counts reallocations of this rank's storage: bodies bound
	// under an older epoch index stale arrays and are rebound.
	epoch   uint64
	discard []float64 // reduction scratch of exec-halo runs, never folded
	ws      []hpx.Waiter
}

func (w *worker) run() {
	for t := range w.mail {
		bufs, err := w.execStep(t)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			// A non-cancellation step failure (kernel panic, send
			// failure, halo timeout, corrupt frame) leaves sharded state
			// and the per-pair message FIFOs torn: fail the engine
			// BEFORE resolving this rank's done LCO, so poisoning the
			// transport unblocks peers still waiting on messages this
			// rank will never send — the driver collects ALL rank LCOs,
			// so escalating later could deadlock the step.
			w.eng.failPermanent(err)
		}
		done := &t.sub.dones[w.rank]
		done.bufs = bufs
		done.lco.Resolve(err)
	}
}

// growOcc sizes the per-occurrence scratch slots for a step of n
// occurrences.
func (w *worker) growOcc(n int) {
	for len(w.readFuts) < n {
		w.readFuts = append(w.readFuts, nil)
		w.readSrcs = append(w.readSrcs, nil)
		w.readSeqs = append(w.readSeqs, nil)
		w.readErr = append(w.readErr, nil)
	}
}

// execStep runs one step on this rank: storage upkeep, then its
// occurrences in order, with hoisted read-halo exchanges posted as soon
// as their producing occurrences have completed (sp.hoisted). The
// message protocol (sends and receives) always runs to completion —
// even when computation is skipped because of cancellation, a kernel
// panic or an upstream failure — so every pair's FIFO channel stays
// aligned for the steps that follow.
func (w *worker) execStep(t *task) ([][]float64, error) {
	sp := t.sub.sp
	sr := sp.ranks[w.rank]
	nOcc := len(sp.loops)
	w.growOcc(nOcc)
	redBufs := sr.redOut[t.sub.parity]
	var firstErr error
	fail := func(e error) {
		if firstErr == nil && e != nil {
			firstErr = e
		}
	}

	var gateErr error
	if t.sub.gate != nil {
		if werr := hpx.WaitAllCtx(t.sub.ctx, t.sub.gate); werr != nil && t.sub.ctx.Err() != nil {
			gateErr = fmt.Errorf("dist: step %q canceled on rank %d: %w", sp.name, w.rank, t.sub.ctx.Err())
			fail(gateErr)
			// Still drain the gate (the previous step always completes):
			// the storage below — in particular the reused reduction
			// buffers — must not be touched while the previous step's
			// driver-side fold may still be reading them.
			t.sub.gate.Wait() //nolint:errcheck // ordering only
		}
		// A failed predecessor is ordering-only here; this step reports
		// its own errors.
	}

	w.upkeep(sr)
	for o := 0; o < nOcc; o++ {
		// Post the hoisted read-halo exchanges of later leaders whose
		// producing occurrences are now complete: the messages travel
		// while the occurrences in between compute.
		for _, L := range sp.hoisted[o] {
			if sched := sr.readPost[L]; sched != nil {
				var phStart time.Time
				if w.eng.obsOn {
					phStart = time.Now()
				}
				w.postRead(t, sp.loops[L], sched, L, true)
				if w.eng.obsOn {
					w.eng.observePhase(sp.loops[L].name, w.rank, phHoist, phStart)
				}
			}
		}
		fail(w.execOcc(t, o, gateErr, &redBufs[o]))
	}
	return redBufs, firstErr
}

// upkeep grows this rank's storage to what the step's bodies index and
// refreshes the replicated copies the step reads from their global
// arrays (the host may have written them since the last step).
func (w *worker) upkeep(sr *stepRank) {
	r := w.rank
	for _, g := range sr.grow {
		if want := g.n * g.ld.d.Dim(); len(g.ld.vals[r]) < want {
			grown := make([]float64, want)
			copy(grown, g.ld.vals[r])
			g.ld.vals[r] = grown
			w.epoch++
		}
	}
	for _, c := range sr.refresh {
		dim := c.ld.d.Dim()
		dst, src := c.ld.vals[r], c.ld.d.Data()
		for l, id := range c.ids {
			copy(dst[l*dim:(l+1)*dim], src[int(id)*dim:(int(id)+1)*dim])
		}
	}
}

// postRead posts one read-halo exchange on this rank: pack and send the
// owned values per destination from pooled message buffers, and post
// the receive futures into the slot's scratch. Errors latch into
// w.readErr[slot] and surface when the consuming occurrence waits.
func (w *worker) postRead(t *task, lp *loopPlan, sched *readSchedule, slot int, hoisted bool) {
	eng, r := w.eng, w.rank
	w.readErr[slot] = nil
	for dst := 0; dst < eng.ranks; dst++ {
		if sched.sendLen[dst] == 0 {
			continue
		}
		msg := eng.getBuf(r, sched.sendLen[dst]+1)
		w.sendSeq[dst]++
		msg = append(msg, float64(w.sendSeq[dst]))
		for _, pt := range sched.sendTo[dst] {
			dim := pt.sd.d.Dim()
			own := pt.sd.vals[r]
			for _, l := range pt.locals {
				msg = append(msg, own[int(l)*dim:(int(l)+1)*dim]...)
			}
		}
		if err := eng.tr.Send(r, dst, msg); err != nil && w.readErr[slot] == nil {
			w.readErr[slot] = err
		}
	}
	futs, srcs, seqs := w.readFuts[slot][:0], w.readSrcs[slot][:0], w.readSeqs[slot][:0]
	for src := 0; src < eng.ranks; src++ {
		if sched.recvLen[src] == 0 {
			continue
		}
		futs = append(futs, eng.tr.Recv(r, src))
		srcs = append(srcs, src)
		w.recvSeq[src]++
		seqs = append(seqs, w.recvSeq[src])
	}
	w.readFuts[slot], w.readSrcs[slot], w.readSeqs[slot] = futs, srcs, seqs
	if hoisted {
		if tr := eng.trace; tr != nil {
			tr(lp.name, r, "hoist")
		}
	}
}

// execOcc runs one loop occurrence of the step on this rank.
func (w *worker) execOcc(t *task, o int, occErr error, redOut *[]float64) (err error) {
	sub, r, eng := t.sub, w.rank, w.eng
	sp := sub.sp
	lp := sp.loops[o]
	rp := lp.ranks[r]
	sr := sp.ranks[r]
	err = occErr
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}

	// Reduction scratch: one slot per owned element when an Inc global
	// must fold on the plan's block grid, one accumulator otherwise.
	size := lp.gbl.size
	var redBuf []float64
	if size > 0 {
		want := size
		if lp.needElementwise {
			want = rp.nOwned * size
		}
		bufs := sr.redBuf[sub.parity]
		if len(bufs[o]) < want {
			bufs[o] = make([]float64, want)
		}
		redBuf = bufs[o][:want]
		if lp.gbl.allInc {
			clear(redBuf)
		} else {
			for i := 0; i < want; i += size {
				copy(redBuf[i:i+size], lp.gbl.init)
			}
		}
	}
	*redOut = redBuf
	var body core.RangeBody
	if err == nil {
		body, err = w.bind(t, o)
	}

	// Phase 1: post this occurrence's read-halo exchange — owned values
	// out, import futures in — unless a hoist already posted it at an
	// earlier occurrence. Nothing blocks here. A coalescing leader's
	// schedule covers every loop of its group; followers have none (the
	// halo is already fresh when they run).
	obsOn := eng.obsOn
	var phStart time.Time
	sched := sr.readPost[o]
	if sched != nil && sp.hoistAt[o] == o {
		if obsOn {
			phStart = time.Now()
		}
		w.postRead(t, lp, sched, o, false)
		if obsOn {
			eng.observePhase(lp.name, r, phIssue, phStart)
		}
	}

	// Phase 2: the runs that read no halo value execute while the
	// messages are in flight — the paper's overlap, applied to
	// communication latency.
	if err == nil {
		if obsOn {
			phStart = time.Now()
		}
		fail(w.runPhase(t, lp, rp, body, redBuf, rp.runs[:rp.nEarly], "interior"))
		if obsOn {
			eng.observePhase(lp.name, r, phInterior, phStart)
		}
	}

	// Phase 3: gate on halo resolution, scatter imports into halo slots,
	// recycle the consumed message buffers into their senders' pools.
	if sched != nil {
		fail(w.readErr[o])
		readFuts, readSrcs := w.readFuts[o], w.readSrcs[o]
		if len(readFuts) > 0 {
			if obsOn {
				phStart = time.Now()
			}
			if tr := eng.trace; tr != nil {
				tr(lp.name, r, "halo")
			}
			werr := w.waitFutsCtx(sub.ctx, readFuts)
			if werr != nil {
				fail(fmt.Errorf("dist: loop %q rank %d read-halo exchange: %w", lp.name, r, werr))
			} else {
				for i, f := range readFuts {
					msg, _ := f.Get()
					ferr := w.checkFrame(lp.name, msg, sched.recvLen[readSrcs[i]], readSrcs[i], w.readSeqs[o][i])
					fail(ferr)
					if err == nil && ferr == nil {
						off := 1 // skip the frame tag
						for _, pt := range sched.recvFrom[readSrcs[i]] {
							dim := pt.sd.d.Dim()
							vals := pt.sd.vals[r]
							for _, l := range pt.locals {
								copy(vals[int(l)*dim:(int(l)+1)*dim], msg[off:off+dim])
								off += dim
							}
						}
					}
					eng.putBuf(readSrcs[i], msg)
					f.Release()
				}
			}
			if obsOn {
				eng.observePhase(lp.name, r, phHalo, phStart)
			}
		}
	}

	// Phase 4: the remaining runs, now that their halo reads are fresh.
	if err == nil {
		if obsOn {
			phStart = time.Now()
		}
		fail(w.runPhase(t, lp, rp, body, redBuf, rp.runs[rp.nEarly:], "boundary"))
		if obsOn {
			eng.observePhase(lp.name, r, phBoundary, phStart)
		}
	}
	return err
}

// bind returns occurrence o's body bound to this rank's arrays, binding
// it on first use and again whenever the submitted loop, its generation
// or this rank's storage epoch changed. A panicking binder fails the
// occurrence like a panicking body.
func (w *worker) bind(t *task, o int) (body core.RangeBody, err error) {
	l, lp := t.sub.loops[o], t.sub.sp.loops[o]
	bb := &lp.ranks[w.rank].bound
	if bb.loop == l && bb.gen == l.Generation() && bb.epoch == w.epoch {
		return bb.body, nil
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("dist: loop %q body binding panicked on rank %d: %v", lp.name, w.rank, rec)
		}
	}()
	gen := l.Generation()
	body = l.Binder()(rankBind{lp: lp, rank: w.rank})
	*bb = boundBody{loop: l, gen: gen, epoch: w.epoch, body: body}
	return body, nil
}

// rankBind is the Bind of one (loop, rank): sharded dats and replicated
// copies resolve to the rank's local arrays, dats on unpartitioned sets
// to their host arrays, and maps to the plan's localized rows.
type rankBind struct {
	lp   *loopPlan
	rank int
}

func (b rankBind) Dat(d *core.Dat) []float64 {
	ld, ok := b.lp.dats[d]
	if !ok {
		panic(fmt.Sprintf("dist: loop %q binds dat %q it does not declare", b.lp.name, d.Name()))
	}
	if ld == nil {
		return d.Data()
	}
	return ld.vals[b.rank]
}

func (b rankBind) Map(m *core.Map) []int32 {
	lm, ok := b.lp.ranks[b.rank].maps[m]
	if !ok {
		panic(fmt.Sprintf("dist: loop %q binds map %q it does not declare", b.lp.name, m.Name()))
	}
	return lm
}

// checkFrame validates one received message's frame: the payload length
// the schedule promised plus the tag recorded when the receive was
// posted. A mismatch — a duplicated, truncated or reordered message —
// is ErrHaloCorrupt; detecting it here turns transport-level corruption
// into a typed step error instead of a scatter index panic or a silent
// wrong answer.
//
//op2:noalloc
func (w *worker) checkFrame(loop string, msg []float64, payload, src int, want uint64) error {
	if len(msg) == payload+1 && msg[0] == float64(want) {
		return nil
	}
	//op2:coldpath a corrupt frame aborts the step
	return fmt.Errorf("dist: loop %q rank %d message from %d: got %d floats tag %v, want %d floats tag %d: %w",
		loop, w.rank, src, len(msg), first(msg), payload+1, want, ErrHaloCorrupt)
}

// first returns the frame tag slot of a message, or NaN-free -1 for an
// empty one (diagnostics only).
func first(msg []float64) float64 {
	if len(msg) == 0 {
		return -1
	}
	return msg[0]
}

// waitFutsCtx waits a slot's receive futures under ctx through the
// worker's reusable waiter buffer. A cancellable wait over pending
// futures gets a private copy instead: an abandoned WaitAllCtx retains
// the slice in its drain goroutine, which would race the buffer's next
// reuse. With a halo timeout configured, a wait over pending futures is
// additionally bounded: expiry fails the exchange with ErrHaloTimeout
// (never context.DeadlineExceeded — a missing message is a fault, not a
// cancellation), and the engine-level teardown that follows poisons the
// transport, resolving the abandoned futures so the drain goroutine
// exits.
func (w *worker) waitFutsCtx(ctx context.Context, futs []RecvFuture) error {
	ready := true
	for _, f := range futs {
		if !f.Ready() {
			ready = false
			break
		}
	}
	if ht := w.eng.haloTimeout; ht > 0 && !ready {
		tctx, cancel := context.WithTimeout(ctx, ht)
		defer cancel()
		ws := make([]hpx.Waiter, 0, len(futs))
		for _, f := range futs {
			ws = append(ws, f)
		}
		err := hpx.WaitAllCtx(tctx, ws...)
		if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			w.eng.haloTimeouts.Add(1)
			return fmt.Errorf("dist: no halo message within %v on rank %d: %w", ht, w.rank, ErrHaloTimeout)
		}
		return err
	}
	var ws []hpx.Waiter
	reusable := ctx.Done() == nil || ready
	if reusable {
		ws = w.ws[:0]
	} else {
		ws = make([]hpx.Waiter, 0, len(futs))
	}
	for _, f := range futs {
		ws = append(ws, f)
	}
	if reusable {
		w.ws = ws
	}
	return hpx.WaitAllCtx(ctx, ws...)
}

// runPhase executes the given runs with the bound body, checking for
// cancellation before each run and reporting each to the trace hook.
// Owned runs reduce into redBuf — per element when an Inc global must
// fold on the plan's block grid — and exec-halo runs into discarded
// scratch. A
// body panic fails the occurrence.
//
//op2:noalloc
func (w *worker) runPhase(t *task, lp *loopPlan, rp *rankPlan, body core.RangeBody, redBuf []float64, runs []execRun, phase string) (err error) {
	//op2:allow open-coded defer: the recovery closure is stack-allocated and fires only on a body panic
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("dist: loop %q kernel panicked on rank %d: %v", lp.name, w.rank, rec)
		}
	}()
	size := lp.gbl.size
	if len(w.discard) < size {
		//op2:coldpath the discard scratch grows once to the widest reduction
		w.discard = make([]float64, size)
	}
	discard := w.discard[:size]
	for _, run := range runs {
		if cerr := t.sub.ctx.Err(); cerr != nil {
			//op2:coldpath cancellation aborts the run walk
			return fmt.Errorf("dist: loop %q canceled on rank %d: %w", lp.name, w.rank, cerr)
		}
		lo, hi := int(run.lo), int(run.hi)
		switch {
		case lo >= rp.nOwned:
			body(lo, hi, discard)
		case lp.needElementwise:
			for i := lo; i < hi; i++ {
				body(i, i+1, redBuf[i*size:(i+1)*size])
			}
		default:
			body(lo, hi, redBuf)
		}
		if tr := w.eng.trace; tr != nil {
			tr(lp.name, w.rank, phase)
		}
	}
	return nil
}
