package dist

import (
	"fmt"

	"op2hpx/internal/hpx"
)

// RecvFuture is the receive side of one in-flight halo message: a waiter
// resolving when the message arrives, with the payload read through Get.
// Release returns the future to its Mailbox's free list once the
// consumer is done with the payload; it must only be called after a
// successful Get, by the single consumer, which must not touch the
// payload afterwards. Abandoned futures (a canceled wait, a poisoned
// transport) are simply dropped — the transport's Mailbox allocates a
// replacement.
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

// Comm is the in-process Transport: a one-channel Mailbox that every
// rank sends into and receives from, plus a per-pair depth bound. A send
// that leaves a pair holding more than depth undelivered messages fails
// with ErrCommOverflow and poisons the mailbox, so every pending and
// future receive fails too instead of deadlocking the other ranks.
type Comm struct {
	mb    *Mailbox
	depth int
}

// NewComm creates a communicator for n ranks (n >= 1) with the default
// per-pair buffering.
func NewComm(n int) *Comm { return NewCommDepth(n, defaultCommDepth) }

// NewCommDepth is NewComm with an explicit per-pair message bound,
// used by tests that pin the overflow behaviour.
func NewCommDepth(n, depth int) *Comm {
	return &Comm{mb: NewMailbox(1, max(n, 1)), depth: max(depth, 1)}
}

// Size reports the number of ranks.
func (c *Comm) Size() int { return c.mb.n }

// Send implements Transport: the payload resolves the pair's oldest
// waiting receive directly, or joins the FIFO, without ever blocking. A
// pair that exceeds the communicator's depth returns an error immediately
// and poisons every receiver instead of deadlocking.
func (c *Comm) Send(src, dst int, payload []float64) error {
	queued, err := c.mb.Deliver(0, dst, src, payload)
	if err != nil {
		return fmt.Errorf("dist: send %d→%d on poisoned communicator: %w", src, dst, err)
	}
	if queued > c.depth {
		err := fmt.Errorf("%w: pair %d→%d exceeded %d in-flight messages: receiver never drains (missing fence?)",
			ErrCommOverflow, src, dst, c.depth)
		c.mb.Poison(err)
		return err
	}
	return nil
}

// Poison implements Poisoner through Mailbox.Poison: the first cause
// wins, and every pending and later receive fails wrapping it. The
// engine calls it on permanent failure so no rank blocks on a message
// that will never arrive.
func (c *Comm) Poison(err error) { c.mb.Poison(err) }

// Recv implements Transport through Mailbox.Recv.
func (c *Comm) Recv(dst, src int) RecvFuture { return c.mb.Recv(0, dst, src) }
