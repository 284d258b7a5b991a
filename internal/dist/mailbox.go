package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"op2hpx/internal/hpx"
)

// ring is a growable FIFO over a reusable backing array: steady-state
// push/pop cycles recycle the same slots instead of re-appending into a
// slid slice (which retains capacity but still re-walks the allocator on
// every wrap). It is the per-pair queue storage of Mailbox, reused
// across timesteps.
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

// recvFuture is the Mailbox's RecvFuture: a reusable LCO plus the
// payload slot, recycled through its mailbox's free list, so
// steady-state receive traffic allocates no futures.
type recvFuture struct {
	lco hpx.LCO
	msg []float64
	m   *Mailbox
}

func (f *recvFuture) Wait() error { return f.lco.Wait() }
func (f *recvFuture) Ready() bool { return f.lco.Ready() }

func (f *recvFuture) Get() ([]float64, error) {
	err := f.lco.Wait()
	return f.msg, err
}

func (f *recvFuture) Release() {
	f.msg = nil
	f.lco.ResetFresh()
	m := f.m
	m.mu.Lock()
	m.free = append(m.free, f)
	m.mu.Unlock()
}

// pairQueue is one (channel, dst, src) queue: the FIFO of undelivered
// messages and the FIFO of posted-but-unmatched receives. At most one of
// the two is non-empty at any time.
type pairQueue struct {
	msgs    ring[[]float64]
	waiting ring[*recvFuture]
}

// Mailbox is the receive side every transport shares. It keeps one
// FIFO pair per (channel, dst, src) that matches delivered payloads with
// posted receives, recycles the receive futures through its own free
// list, and owns the failure state: a poison that fails every waiting
// and later receive with its cause, and a per-source exit for a peer
// that will send no more. Comm is a one-channel mailbox; the TCP
// transport is a halo+ctl mailbox fed by its connection readers. All
// methods are safe for concurrent use.
type Mailbox struct {
	n int

	mu     sync.Mutex
	queues [][]pairQueue // [channel][dst*n+src]
	exited []bool        // by src: no further message will come
	free   []*recvFuture

	err    error
	broken atomic.Bool   // set under mu, after err
	dead   chan struct{} // closed by the first Poison
}

// NewMailbox creates a mailbox of chans channels between n ranks.
func NewMailbox(chans, n int) *Mailbox {
	m := &Mailbox{n: n, queues: make([][]pairQueue, chans), exited: make([]bool, n), dead: make(chan struct{})}
	for ch := range m.queues {
		m.queues[ch] = make([]pairQueue, n*n)
	}
	return m
}

// Err reports the poison cause, nil while the mailbox is healthy.
func (m *Mailbox) Err() error {
	if !m.broken.Load() {
		return nil
	}
	return m.err
}

// Dead is closed once the mailbox is poisoned, for waits that must
// also end on failure.
func (m *Mailbox) Dead() <-chan struct{} { return m.dead }

// getLocked takes a future from the free list. m.mu must be held.
func (m *Mailbox) getLocked() *recvFuture {
	last := len(m.free) - 1
	if last < 0 {
		return &recvFuture{m: m}
	}
	f := m.free[last]
	m.free[last] = nil
	m.free = m.free[:last]
	return f
}

// Fail returns a receive future already failed with err, for a receive
// its transport rejects before it reaches a queue.
func (m *Mailbox) Fail(err error) RecvFuture {
	m.mu.Lock()
	f := m.getLocked()
	m.mu.Unlock()
	f.lco.Resolve(err)
	return f
}

func abortErr(dst, src int, cause error) error {
	return fmt.Errorf("dist: recv %d←%d aborted: %w", dst, src, cause)
}

// Recv returns a future resolving to the next message from src to dst
// on channel ch. It fails with the poison cause on a poisoned mailbox,
// and with ErrRankFailed when src has exited and nothing from it is
// queued. Receives for one pair match messages in FIFO order
// structurally — the pair's waiting queue is ordered — so an abandoned
// wait (a canceled loop) can never race a later receive for the same
// pair out of order.
func (m *Mailbox) Recv(ch, dst, src int) RecvFuture {
	m.mu.Lock()
	f := m.getLocked()
	if m.broken.Load() {
		m.mu.Unlock()
		f.lco.Resolve(abortErr(dst, src, m.err))
		return f
	}
	q := &m.queues[ch][dst*m.n+src]
	if q.msgs.len() > 0 && q.waiting.len() == 0 {
		f.msg = q.msgs.pop()
		m.mu.Unlock()
		f.lco.Resolve(nil)
		return f
	}
	if m.exited[src] {
		m.mu.Unlock()
		f.lco.Resolve(fmt.Errorf("%w: recv %d←%d: rank %d has exited", ErrRankFailed, dst, src, src))
		return f
	}
	q.waiting.push(f)
	m.mu.Unlock()
	return f
}

// Deliver hands msg from src to dst on channel ch: it resolves the
// pair's oldest waiting receive, or queues msg. It reports how many
// messages the pair then holds undelivered (0 when a receive took msg).
// A poisoned mailbox refuses msg, which stays the caller's, and Deliver
// returns the poison cause.
func (m *Mailbox) Deliver(ch, dst, src int, msg []float64) (queued int, err error) {
	m.mu.Lock()
	if m.broken.Load() {
		m.mu.Unlock()
		return 0, m.err
	}
	q := &m.queues[ch][dst*m.n+src]
	if q.waiting.len() > 0 {
		f := q.waiting.pop()
		m.mu.Unlock()
		f.msg = msg
		f.lco.Resolve(nil)
		return 0, nil
	}
	q.msgs.push(msg)
	queued = q.msgs.len()
	m.mu.Unlock()
	return queued, nil
}

// Exit records that src will send no more messages: a later receive
// from src that finds nothing queued fails with ErrRankFailed. It
// reports how many receives from src were already waiting — receives
// that can no longer resolve with data. Marking the exit and counting
// the waiters happen under one lock with Recv's post, so no receive
// slips in between unresolved. On a poisoned mailbox every waiter has
// already failed, and Exit reports 0.
func (m *Mailbox) Exit(src int) (waiting int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken.Load() {
		return 0
	}
	m.exited[src] = true
	for ch := range m.queues {
		for dst := 0; dst < m.n; dst++ {
			waiting += m.queues[ch][dst*m.n+src].waiting.len()
		}
	}
	return waiting
}

// Poison breaks the mailbox for good: every waiting receive fails with
// an error naming its pair and wrapping cause, every later Recv fails
// the same way, and Deliver refuses. The first cause wins; Poison
// reports whether this call was the first.
func (m *Mailbox) Poison(cause error) bool {
	if cause == nil {
		cause = errors.New("dist: mailbox poisoned")
	}
	m.mu.Lock()
	if m.broken.Load() {
		m.mu.Unlock()
		return false
	}
	m.err = cause
	m.broken.Store(true)
	m.mu.Unlock()
	close(m.dead)
	// Every other method checks broken under mu before it touches a
	// queue, so the waiting FIFOs now belong to this call alone, and the
	// waiters resolve outside the lock.
	for ch := range m.queues {
		for i := range m.queues[ch] {
			q := &m.queues[ch][i]
			for q.waiting.len() > 0 {
				q.waiting.pop().lco.Resolve(abortErr(i/m.n, i%m.n, cause))
			}
		}
	}
	return true
}
