// Package hpx is a Go rendition of the HPX runtime facilities the paper
// relies on: futures (§III-A), dataflow (§III-B), execution policies
// (Table I), chunk-size control including persistent_auto_chunk_size
// (§IV-B), and the chunked for_each parallel algorithm that hosts the
// prefetching iterator (§V).
//
// A Future[T] is a computational result that is initially unknown but
// becomes available later; Get suspends only the calling goroutine, never
// a pool worker, so all other work proceeds — the behaviour of HPX
// user-level threads in Fig. 5 of the paper. Since the intrusive
// wait-list redesign a Future is a thin value container over an LCO:
// creating a promise/future pair is one allocation, waiting parks on a
// condition variable instead of a channel, and consumers that support it
// (the OP2 executor's issue path) attach Continuations to a future's
// wait-list instead of parking a goroutine per dependency.
package hpx

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// ErrPromiseAbandoned is the error observed by a future whose promise was
// dropped without being fulfilled.
var ErrPromiseAbandoned = errors.New("hpx: promise abandoned")

// Future holds a value of type T that becomes available at a later time.
// The zero value is not usable; create futures with NewPromise, Async,
// MakeReady or one of the combinators. A Future has shared-future
// semantics: any number of goroutines may call Get concurrently and every
// call observes the same value.
type Future[T any] struct {
	lco   LCO
	value T
}

// Promise is the producer side of a Future. Exactly one of Set or SetErr
// must be called, exactly once.
type Promise[T any] struct {
	f *Future[T]
}

// NewPromise creates a connected promise/future pair.
func NewPromise[T any]() (*Promise[T], *Future[T]) {
	f := &Future[T]{}
	return &Promise[T]{f: f}, f
}

// Set fulfils the future with v. It panics if the promise was already
// satisfied, which always indicates a program bug — and it does so
// BEFORE touching the value, so a racing double-Set can never tear the
// value already published to readers.
func (p *Promise[T]) Set(v T) {
	l := &p.f.lco
	l.mu.Lock()
	if l.resolved {
		l.mu.Unlock()
		panic("hpx: LCO resolved twice")
	}
	p.f.value = v
	l.finishLocked(nil)
}

// SetErr fulfils the future with an error.
func (p *Promise[T]) SetErr(err error) {
	if err == nil {
		err = ErrPromiseAbandoned
	}
	p.f.lco.Resolve(err)
}

// Satisfied reports whether the promise was already fulfilled — the
// guard recover paths use to avoid satisfying a promise twice.
func (p *Promise[T]) Satisfied() bool { return p.f.lco.Ready() }

// Future returns the future connected to this promise.
func (p *Promise[T]) Future() *Future[T] { return p.f }

// MakeReady returns a future that is already fulfilled with v. It mirrors
// hpx::make_ready_future and is how non-future inputs are passed through a
// dataflow (Fig. 6: "non-future inputs are passed through").
func MakeReady[T any](v T) *Future[T] {
	f := &Future[T]{value: v}
	f.lco.Resolve(nil)
	return f
}

// MakeErr returns a future that is already fulfilled with an error.
func MakeErr[T any](err error) *Future[T] {
	if err == nil {
		err = ErrPromiseAbandoned
	}
	f := &Future[T]{}
	f.lco.Resolve(err)
	return f
}

// Get waits until the value is available and returns it. This is
// future.get() from the paper: the caller is suspended only if the result
// is not readily available, and resumes as soon as it is.
func (f *Future[T]) Get() (T, error) {
	err := f.lco.Wait()
	return f.value, err
}

// MustGet is Get for contexts where an error indicates a program bug.
func (f *Future[T]) MustGet() T {
	v, err := f.Get()
	if err != nil {
		panic(fmt.Sprintf("hpx: MustGet on failed future: %v", err))
	}
	return v
}

// Ready reports whether the value is already available, without blocking.
func (f *Future[T]) Ready() bool { return f.lco.Ready() }

// Wait blocks until the future is fulfilled, discarding the value.
func (f *Future[T]) Wait() error { return f.lco.Wait() }

// Done exposes a completion channel so futures can take part in select
// statements alongside other channel-based events. The channel is
// created lazily on the first Done call on a pending future.
func (f *Future[T]) Done() <-chan struct{} { return f.lco.Done() }

// Subscribe registers an intrusive continuation to fire when the future
// resolves (see ContinuationWaiter); it reports false when the future
// has already resolved.
func (f *Future[T]) Subscribe(c *Continuation) bool { return f.lco.Subscribe(c) }

// Waiter is the type-erased view of a future used by dataflow and WhenAll:
// anything that can be waited on with an error outcome.
type Waiter interface {
	Wait() error
	Ready() bool
}

// Async runs fn in a new goroutine and returns a future for its result —
// hpx::async with the (task) launch policy.
func Async[T any](fn func() (T, error)) *Future[T] {
	p, f := NewPromise[T]()
	go func() {
		defer func() {
			if r := recover(); r != nil && !p.Satisfied() {
				p.SetErr(fmt.Errorf("hpx: async task panicked: %v", r))
			}
		}()
		v, err := fn()
		if err != nil {
			p.SetErr(err)
			return
		}
		p.Set(v)
	}()
	return f
}

// Then attaches a continuation to f and returns the continuation's future.
// The continuation runs as soon as f becomes ready (in its own goroutine),
// receiving f's value. If f failed, the continuation is skipped and the
// error propagates.
func Then[T, U any](f *Future[T], fn func(T) (U, error)) *Future[U] {
	p, out := NewPromise[U]()
	go func() {
		v, err := f.Get()
		if err != nil {
			p.SetErr(err)
			return
		}
		defer func() {
			if r := recover(); r != nil && !p.Satisfied() {
				p.SetErr(fmt.Errorf("hpx: continuation panicked: %v", r))
			}
		}()
		u, err := fn(v)
		if err != nil {
			p.SetErr(err)
			return
		}
		p.Set(u)
	}()
	return out
}

// WhenAll returns a future that becomes ready when every input is ready.
// The future carries the first error observed (in input order), if any.
func WhenAll(ws ...Waiter) *Future[struct{}] {
	p, f := NewPromise[struct{}]()
	go func() {
		var firstErr error
		for _, w := range ws {
			if w == nil {
				continue
			}
			if err := w.Wait(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			p.SetErr(firstErr)
			return
		}
		p.Set(struct{}{})
	}()
	return f
}

// WaitAll blocks until every input is ready and returns the first error.
func WaitAll(ws ...Waiter) error { return waitAll(ws) }

// waitAll is WaitAll over any waiter element type; nil interface inputs
// are skipped.
func waitAll[W Waiter](ws []W) error {
	var firstErr error
	for _, w := range ws {
		if any(w) == nil {
			continue
		}
		if err := w.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WaitAllCtx is WaitAll racing a context: it returns ctx.Err() as soon as
// the context is done, even if some inputs are still pending. The inputs
// keep resolving on their own; only this wait is abandoned (a goroutine
// drains the stragglers in the background, over its own copy of ws, so
// the caller may reuse ws once the call returns). Inputs that are all
// ready, or a ctx that can never be done, cost no allocation.
func WaitAllCtx[W Waiter](ctx context.Context, ws ...W) error {
	if ctx == nil || ctx.Done() == nil {
		return waitAll(ws)
	}
	// Fast path: everything already resolved — no goroutine needed.
	ready := true
	for _, w := range ws {
		if any(w) != nil && !w.Ready() {
			ready = false
			break
		}
	}
	if ready {
		if err := ctx.Err(); err != nil {
			return err
		}
		return waitAll(ws)
	}
	pending := slices.Clone(ws)
	done := make(chan error, 1)
	go func() { done <- waitAll(pending) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Dataflow encapsulates fn with its future inputs (Fig. 6): as soon as the
// last input has been received, fn is scheduled for execution with the
// inputs already unwrapped by the caller-supplied closure. Because Dataflow
// itself returns a future, its result can feed other dataflows; the chained
// futures form the dependency tree that the runtime executes as
// dependencies are met (§III-B).
func Dataflow[T any](fn func() (T, error), inputs ...Waiter) *Future[T] {
	p, out := NewPromise[T]()
	go func() {
		for _, w := range inputs {
			if w == nil {
				continue
			}
			if err := w.Wait(); err != nil {
				p.SetErr(fmt.Errorf("hpx: dataflow input failed: %w", err))
				return
			}
		}
		defer func() {
			if r := recover(); r != nil && !p.Satisfied() {
				p.SetErr(fmt.Errorf("hpx: dataflow body panicked: %v", r))
			}
		}()
		v, err := fn()
		if err != nil {
			p.SetErr(err)
			return
		}
		p.Set(v)
	}()
	return out
}

// Unwrapped2 waits for two futures and feeds their values to fn, returning
// the future of the result. It mirrors hpx::util::unwrapped in Fig. 7: the
// futures are unwrapped and the actual results passed along.
func Unwrapped2[A, B, T any](fa *Future[A], fb *Future[B], fn func(A, B) (T, error)) *Future[T] {
	return Dataflow(func() (T, error) {
		a, _ := fa.Get()
		b, _ := fb.Get()
		return fn(a, b)
	}, fa, fb)
}

// Unwrapped3 is Unwrapped2 for three inputs.
func Unwrapped3[A, B, C, T any](fa *Future[A], fb *Future[B], fc *Future[C], fn func(A, B, C) (T, error)) *Future[T] {
	return Dataflow(func() (T, error) {
		a, _ := fa.Get()
		b, _ := fb.Get()
		c, _ := fc.Get()
		return fn(a, b, c)
	}, fa, fb, fc)
}
