// Package sched implements the task scheduler underlying the HPX-like
// runtime: a fixed-size pool of worker goroutines with per-worker
// work-stealing deques.
//
// The pool plays the role of the HPX thread pool: the number of workers is
// the "--hpx:threads" knob used by the paper's strong-scaling experiments,
// and every chunk produced by the parallel algorithms in package hpx is a
// task scheduled here. Tasks are plain func() values; they must not block
// indefinitely (future waits are performed by ordinary goroutines outside
// the pool, mirroring how HPX suspends user-level threads instead of
// blocking OS threads).
//
// A worker that runs out of work does not park at once. Like an HPX
// worker thread, which stays in its scheduling loop for a bounded idle
// phase before it suspends, it keeps polling its own deque and every
// steal target for idleSpin of wall time, yielding its processor with
// runtime.Gosched between polls so the goroutines that issue and join
// the work are never kept off a P. The chunks of the next loop of a
// dependency chain, or of the next colour of a coloured loop, then
// start on a worker that is still running instead of waiting for a
// parked OS thread to wake. Once the budget has run out the worker
// parks on the pool's condition variable, so an idle pool burns no CPU.
package sched

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// idleSpin is the idle phase of a worker: how long it keeps polling for
// work, yielding between polls, after it first finds none, before it
// parks. It bridges the gap between the loops of a dependency chain on
// a small mesh, and is short enough that an idle pool parks within a
// fraction of a millisecond.
const idleSpin = 50 * time.Microsecond

// Task is a unit of work executed by the pool.
type Task func()

// ErrClosed is returned by Submit after Close has been called.
var ErrClosed = errors.New("sched: pool is closed")

// deque is a mutex-protected double-ended queue of tasks. The owning worker
// pushes and pops at the tail (LIFO, for locality); thieves steal from the
// head (FIFO, for fairness), the classic Chase-Lev access pattern without
// the lock-free machinery, which the chunk granularity used here does not
// need.
type deque struct {
	mu    sync.Mutex
	tasks []Task
}

func (d *deque) pushTail(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) popTail() (Task, bool) {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return nil, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	d.mu.Unlock()
	return t, true
}

func (d *deque) stealHead() (Task, bool) {
	d.mu.Lock()
	n := len(d.tasks)
	if n == 0 {
		d.mu.Unlock()
		return nil, false
	}
	t := d.tasks[0]
	// Shift down instead of re-slicing off the head: a head re-slice
	// permanently discards one capacity slot per steal, so a steady-state
	// workload would re-grow its deques forever. Deques hold at most a
	// few queued chunks, so the copy is trivially cheap.
	copy(d.tasks, d.tasks[1:])
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	d.mu.Unlock()
	return t, true
}

func (d *deque) len() int {
	d.mu.Lock()
	n := len(d.tasks)
	d.mu.Unlock()
	return n
}

// Pool is a work-stealing scheduler with a fixed number of workers.
type Pool struct {
	deques []*deque
	next   atomic.Uint64 // round-robin cursor for Submit

	mu       sync.Mutex
	cond     *sync.Cond
	sleepers int
	closed   bool

	wg sync.WaitGroup

	executed atomic.Uint64
	stolen   atomic.Uint64
}

// NewPool creates and starts a pool with n workers. If n <= 0 the number of
// workers defaults to runtime.GOMAXPROCS(0).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{deques: make([]*deque, n)}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.deques {
		p.deques[i] = &deque{}
	}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(i)
	}
	return p
}

// Size reports the number of workers.
func (p *Pool) Size() int { return len(p.deques) }

// Stats reports the number of tasks executed and the number of tasks that
// were obtained by stealing rather than from the worker's own deque.
func (p *Pool) Stats() (executed, stolen uint64) {
	return p.executed.Load(), p.stolen.Load()
}

// Submit schedules t for execution. Tasks are distributed round-robin over
// the worker deques so that stealing only happens on imbalance. A nil
// error guarantees that t runs: the push happens under the pool lock that
// Close takes to mark the pool closed, so a worker that sees the pool
// closed also sees every task accepted before it.
func (p *Pool) Submit(t Task) error {
	if t == nil {
		return errors.New("sched: nil task")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.push(t)
	if p.sleepers > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
	return nil
}

// push appends t to the next deque in round-robin order. Caller holds p.mu.
func (p *Pool) push(t Task) {
	i := int(p.next.Add(1)-1) % len(p.deques)
	p.deques[i].pushTail(t)
}

// SubmitCtx is Submit gated on a context: when ctx is already done the
// task is refused with the context's error instead of being enqueued.
// This is the cancellation hook of the parallel algorithms — chunks of an
// aborted loop nest are never scheduled, so a canceled loop releases the
// pool as soon as its in-flight chunks drain.
func (p *Pool) SubmitCtx(ctx context.Context, t Task) error {
	if ctx != nil {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return p.Submit(t)
}

// SubmitMany schedules a batch of tasks, spreading them evenly across the
// worker deques and waking every sleeping worker once. The batch is
// accepted whole or not at all.
func (p *Pool) SubmitMany(ts []Task) error {
	for _, t := range ts {
		if t == nil {
			return errors.New("sched: nil task")
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	for _, t := range ts {
		p.push(t)
	}
	if p.sleepers > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	return nil
}

// Close stops the pool. Workers drain any already-queued work and then
// exit; Close blocks until they are gone. Submitting after Close fails with
// ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	rng := rand.New(rand.NewSource(int64(id)*2654435761 + 1))
	own := p.deques[id]
	var idleSince time.Time // zero while the worker is finding work
	for {
		if t, ok := own.popTail(); ok {
			t()
			p.executed.Add(1)
			idleSince = time.Time{}
			continue
		}
		if t, ok := p.steal(id, rng); ok {
			t()
			p.executed.Add(1)
			p.stolen.Add(1)
			idleSince = time.Time{}
			continue
		}
		// Nothing found anywhere: spin through the idle phase, then
		// park unless shutting down.
		if idleSince.IsZero() {
			idleSince = time.Now()
		}
		if time.Since(idleSince) < idleSpin {
			runtime.Gosched()
			continue
		}
		idleSince = time.Time{}
		// The re-check under the pool lock pairs with Submit, which
		// pushes and signals under that lock: any task pushed before
		// we took it is visible here, and any task pushed after must
		// wait for the lock we hold until cond.Wait releases it, so
		// its wake signal cannot be lost.
		p.mu.Lock()
		if p.anyQueued() {
			p.mu.Unlock()
			continue
		}
		if p.closed {
			// No task is accepted after close, and every task
			// accepted before it was pushed under the lock: the
			// queues are empty for good.
			p.mu.Unlock()
			return
		}
		p.sleepers++
		p.cond.Wait()
		p.sleepers--
		p.mu.Unlock()
	}
}

func (p *Pool) steal(self int, rng *rand.Rand) (Task, bool) {
	n := len(p.deques)
	if n == 1 {
		return nil, false
	}
	start := rng.Intn(n)
	for k := 0; k < n; k++ {
		v := (start + k) % n
		if v == self {
			continue
		}
		if t, ok := p.deques[v].stealHead(); ok {
			return t, true
		}
	}
	return nil, false
}

func (p *Pool) anyQueued() bool {
	for _, d := range p.deques {
		if d.len() > 0 {
			return true
		}
	}
	return false
}

var (
	defaultPool   *Pool
	defaultPoolMu sync.Mutex
)

// Default returns the process-wide pool, creating it with GOMAXPROCS
// workers on first use.
func Default() *Pool {
	defaultPoolMu.Lock()
	defer defaultPoolMu.Unlock()
	if defaultPool == nil {
		defaultPool = NewPool(0)
	}
	return defaultPool
}

// ResetDefault replaces the process-wide pool with a pool of n workers and
// closes the previous one. It is used by benchmarks that sweep the thread
// count, mirroring HPX's --hpx:threads option.
func ResetDefault(n int) *Pool {
	defaultPoolMu.Lock()
	old := defaultPool
	defaultPool = NewPool(n)
	defaultPoolMu.Unlock()
	if old != nil {
		old.Close()
	}
	return defaultPool
}
