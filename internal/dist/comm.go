package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"op2hpx/internal/hpx"
)

// RecvFuture is the receive side of one in-flight halo message: a waiter
// resolving when the message arrives, with the payload read through Get.
// Release returns the future's pooled resources to its transport once the
// consumer is done with the payload; it must only be called after a
// successful Get, by the single consumer, which must not touch the
// payload afterwards. Abandoned futures (a canceled wait, a poisoned
// communicator) are simply dropped — the pool replaces them.
type RecvFuture interface {
	hpx.Waiter
	// Get blocks until the message arrives and returns the payload.
	Get() ([]float64, error)
	// Release recycles the future. The payload's buffer is NOT part of
	// the future — message buffers are pooled by the engine per rank.
	Release()
}

// Transport moves halo messages between the ranks of one machine. The
// contract is per-pair FIFO: messages from src to dst are received in the
// order they were sent. Recv returns a future so receivers can overlap
// computation with delivery — the engine posts its receives, executes
// interior work, and only gates boundary work on the futures (§III-A/§IV of the paper, applied to communication).
//
// Implementations must never block in Send: a sender that has run far
// ahead of a receiver must be buffered, and a transport that cannot
// buffer any further must surface a descriptive error on both sides, not
// a deadlock.
type Transport interface {
	// Send delivers payload from rank src to rank dst without blocking.
	// It returns a descriptive error when the pair's buffer is full.
	Send(src, dst int, payload []float64) error
	// Recv returns a future resolving to the next undelivered message
	// from src to dst. Successive Recv calls for one pair must be issued
	// in message order by the receiving rank.
	Recv(dst, src int) RecvFuture
	// Size reports the number of ranks.
	Size() int
}

// defaultCommDepth bounds the in-flight messages per rank pair. With the
// Step API a single mailbox slot can carry a whole timestep of loops
// (each posting a read-halo message per pair), so the
// bound is no longer a small static function of the mailbox depth; it is
// a sanity backstop against a submitter that never fences, far above
// anything a pipelined application legitimately reaches.
const defaultCommDepth = 1 << 20

// ring is a growable FIFO over a reusable backing array: steady-state
// push/pop cycles recycle the same slots instead of re-appending into a
// slid slice (which retains capacity but still re-walks the allocator on
// every wrap). It is the per-pair queue storage of Comm, reused across
// timesteps.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// recvFuture is Comm's pooled RecvFuture: a reusable LCO plus the
// payload slot. The per-message promise allocation of the pre-pool
// communicator is gone — steady-state receive traffic recycles a small
// set of futures per communicator.
type recvFuture struct {
	lco hpx.LCO
	msg []float64
	c   *Comm
}

func (f *recvFuture) Wait() error { return f.lco.Wait() }
func (f *recvFuture) Ready() bool { return f.lco.Ready() }

func (f *recvFuture) Get() ([]float64, error) {
	err := f.lco.Wait()
	return f.msg, err
}

// Done exposes the completion channel for select-based tests.
func (f *recvFuture) Done() <-chan struct{} { return f.lco.Done() }

func (f *recvFuture) Release() {
	f.msg = nil
	f.lco.ResetFresh()
	f.c.futs.Put(f)
}

// pairQueue is one ordered rank pair's state: the FIFO of undelivered
// messages and the FIFO of posted-but-unmatched receives. At most one of
// the two is non-empty at any time.
type pairQueue struct {
	msgs    ring[[]float64]
	waiting ring[*recvFuture]
}

// Comm is the in-process Transport: one growable FIFO per ordered rank
// pair, with the receive futures pooled and the FIFO backing arrays
// reused across timesteps. A send into a pair that has accumulated depth
// undelivered messages fails with a descriptive error and poisons the
// communicator, so every pending and future receive fails too instead of
// deadlocking the other ranks.
type Comm struct {
	n     int
	depth int

	mu    sync.Mutex
	pairs [][]pairQueue // [dst][src]
	futs  sync.Pool     // *recvFuture

	broken atomic.Bool
	err    error
}

// NewComm creates a communicator for n ranks (n >= 1) with the default
// per-pair buffering.
func NewComm(n int) *Comm { return NewCommDepth(n, defaultCommDepth) }

// NewCommDepth is NewComm with an explicit per-pair message bound,
// used by tests that pin the overflow behaviour.
func NewCommDepth(n, depth int) *Comm {
	if n < 1 {
		n = 1
	}
	if depth < 1 {
		depth = 1
	}
	c := &Comm{n: n, depth: depth}
	c.pairs = make([][]pairQueue, n)
	for dst := range c.pairs {
		c.pairs[dst] = make([]pairQueue, n)
	}
	return c
}

// Size reports the number of ranks.
func (c *Comm) Size() int { return c.n }

func (c *Comm) getFut() *recvFuture {
	f, _ := c.futs.Get().(*recvFuture)
	if f == nil {
		f = &recvFuture{c: c}
	}
	return f
}

// failedRecv pairs a poisoned waiting receive with its pair identity so
// the abort error can name which receiver died.
type failedRecv struct {
	f        *recvFuture
	dst, src int
}

// poisonLocked marks the communicator broken and collects every waiting
// receive of every pair (with its pair identity). c.mu must be held; the
// caller resolves the collected waiters outside the lock.
func (c *Comm) poisonLocked(err error) []failedRecv {
	if c.broken.Load() {
		return nil
	}
	c.err = err
	c.broken.Store(true)
	var failed []failedRecv
	for dst := range c.pairs {
		for src := range c.pairs[dst] {
			q := &c.pairs[dst][src]
			for q.waiting.len() > 0 {
				failed = append(failed, failedRecv{f: q.waiting.pop(), dst: dst, src: src})
			}
		}
	}
	return failed
}

// Send implements Transport: the payload resolves the pair's oldest
// waiting receive directly, or joins the FIFO, without ever blocking. A
// pair that exceeds the communicator's depth returns an error immediately
// and poisons every receiver instead of deadlocking.
func (c *Comm) Send(src, dst int, payload []float64) error {
	c.mu.Lock()
	if c.broken.Load() {
		err := c.err
		c.mu.Unlock()
		return fmt.Errorf("dist: send %d→%d on poisoned communicator: %w", src, dst, err)
	}
	q := &c.pairs[dst][src]
	if q.waiting.len() > 0 {
		f := q.waiting.pop()
		c.mu.Unlock()
		f.msg = payload
		f.lco.Resolve(nil)
		return nil
	}
	if q.msgs.len() >= c.depth {
		err := fmt.Errorf("%w: pair %d→%d exceeded %d in-flight messages: receiver never drains (missing fence?)",
			ErrCommOverflow, src, dst, c.depth)
		failed := c.poisonLocked(err)
		c.mu.Unlock()
		for _, fr := range failed {
			fr.f.lco.Resolve(fmt.Errorf("dist: recv %d←%d aborted: %w", fr.dst, fr.src, err))
		}
		return err
	}
	q.msgs.push(payload)
	c.mu.Unlock()
	return nil
}

// Poison implements Poisoner: it marks the communicator permanently
// broken with the given cause and resolves every pending receive (and
// every future send or receive) with an error wrapping it. Idempotent —
// the first poison wins. The engine calls it on permanent failure so no
// rank blocks on a message that will never arrive.
func (c *Comm) Poison(err error) {
	if err == nil {
		err = fmt.Errorf("communicator poisoned")
	}
	c.mu.Lock()
	failed := c.poisonLocked(err)
	c.mu.Unlock()
	for _, fr := range failed {
		fr.f.lco.Resolve(fmt.Errorf("dist: recv %d←%d aborted: %w", fr.dst, fr.src, err))
	}
}

// Recv implements Transport: the returned future resolves with the next
// message from src, or with the communicator's poison error. Receives
// for one pair match sends in FIFO order structurally — the pair's
// waiting queue is ordered — so an abandoned wait (a canceled loop) can
// never race a later loop's receive for the same pair out of order.
func (c *Comm) Recv(dst, src int) RecvFuture {
	f := c.getFut()
	c.mu.Lock()
	if c.broken.Load() {
		err := c.err
		c.mu.Unlock()
		f.lco.Resolve(fmt.Errorf("dist: recv %d←%d aborted: %w", dst, src, err))
		return f
	}
	q := &c.pairs[dst][src]
	if q.msgs.len() > 0 && q.waiting.len() == 0 {
		msg := q.msgs.pop()
		c.mu.Unlock()
		f.msg = msg
		f.lco.Resolve(nil)
		return f
	}
	q.waiting.push(f)
	c.mu.Unlock()
	return f
}
