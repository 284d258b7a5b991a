package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPoolExecutesAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 1000
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := p.Submit(func() {
			count.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	wg.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("executed %d tasks, want %d", got, n)
	}
}

func TestPoolSizeDefaults(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Size() < 1 {
		t.Fatalf("default pool size %d < 1", p.Size())
	}
}

func TestPoolSubmitMany(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const n = 500
	var count atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = func() {
			count.Add(1)
			wg.Done()
		}
	}
	if err := p.SubmitMany(tasks); err != nil {
		t.Fatalf("SubmitMany: %v", err)
	}
	wg.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("executed %d tasks, want %d", got, n)
	}
}

func TestPoolSubmitNil(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if err := p.Submit(nil); err == nil {
		t.Fatal("Submit(nil) succeeded, want error")
	}
}

func TestPoolCloseRejectsSubmit(t *testing.T) {
	p := NewPool(2)
	p.Close()
	if err := p.Submit(func() {}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic or deadlock
}

func TestPoolCloseDrainsQueuedWork(t *testing.T) {
	p := NewPool(2)
	var count atomic.Int64
	const n = 200
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		_ = p.Submit(func() {
			time.Sleep(50 * time.Microsecond)
			count.Add(1)
			wg.Done()
		})
	}
	p.Close()
	wg.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("after Close, executed %d tasks, want %d", got, n)
	}
}

func TestPoolStealingHappensOnImbalance(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Submit a burst far larger than the worker count; round-robin plus
	// uneven task durations forces steals on most machines. We only
	// assert the pool completes; stealing itself is asserted weakly
	// because timing-dependent.
	var wg sync.WaitGroup
	const n = 2000
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(i%7) * time.Microsecond
		_ = p.Submit(func() {
			time.Sleep(d)
			wg.Done()
		})
	}
	wg.Wait()
	executed, _ := p.Stats()
	if executed != n {
		t.Fatalf("stats report %d executed, want %d", executed, n)
	}
}

func TestPoolTasksSubmittedFromTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	var wg sync.WaitGroup
	const outer = 50
	const inner = 20
	wg.Add(outer * inner)
	for i := 0; i < outer; i++ {
		_ = p.Submit(func() {
			for j := 0; j < inner; j++ {
				_ = p.Submit(func() {
					count.Add(1)
					wg.Done()
				})
			}
		})
	}
	wg.Wait()
	if got := count.Load(); got != outer*inner {
		t.Fatalf("executed %d nested tasks, want %d", got, outer*inner)
	}
}

func TestPoolNoLostWakeups(t *testing.T) {
	// Regression test for the park/submit race: trickle tasks one at a
	// time with gaps long enough for workers to park.
	p := NewPool(2)
	defer p.Close()
	for i := 0; i < 50; i++ {
		done := make(chan struct{})
		_ = p.Submit(func() { close(done) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("task %d never ran: lost wakeup", i)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDequeLIFOOwnerFIFOThief(t *testing.T) {
	d := &deque{}
	for i := 0; i < 3; i++ {
		i := i
		d.pushTail(func() { _ = i })
	}
	if d.len() != 3 {
		t.Fatalf("len = %d, want 3", d.len())
	}
	if _, ok := d.stealHead(); !ok {
		t.Fatal("stealHead on non-empty deque failed")
	}
	if _, ok := d.popTail(); !ok {
		t.Fatal("popTail on non-empty deque failed")
	}
	if d.len() != 1 {
		t.Fatalf("len = %d, want 1", d.len())
	}
}

func TestResetDefault(t *testing.T) {
	p1 := ResetDefault(2)
	if Default() != p1 {
		t.Fatal("Default() does not return the pool installed by ResetDefault")
	}
	if p1.Size() != 2 {
		t.Fatalf("pool size %d, want 2", p1.Size())
	}
	p2 := ResetDefault(3)
	if p2.Size() != 3 {
		t.Fatalf("pool size %d, want 3", p2.Size())
	}
	// The replaced pool must be closed.
	if err := p1.Submit(func() {}); err != ErrClosed {
		t.Fatalf("old default pool still accepts work: %v", err)
	}
}

func TestPoolPropertyAllTasksRunOnce(t *testing.T) {
	// Property: for any worker count and task count, every task runs
	// exactly once.
	f := func(workers uint8, tasks uint16) bool {
		w := int(workers)%8 + 1
		n := int(tasks) % 500
		p := NewPool(w)
		defer p.Close()
		ran := make([]atomic.Int32, n)
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			i := i
			_ = p.Submit(func() {
				ran[i].Add(1)
				wg.Done()
			})
		}
		wg.Wait()
		for i := range ran {
			if ran[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolSubmitCloseNeverStrandsTask(t *testing.T) {
	// Race a burst of concurrent Submits against Close: every task whose
	// Submit returned nil must have run by the time Close returns, or a
	// caller that joins on it (instead of running it inline on
	// ErrClosed) hangs.
	const rounds = 2000
	const submits = 50
	for r := 0; r < rounds; r++ {
		p := NewPool(2)
		var accepted, ran atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(submits + 1)
		for i := 0; i < submits; i++ {
			go func() {
				defer wg.Done()
				<-start
				if p.Submit(func() { ran.Add(1) }) == nil {
					accepted.Add(1)
				}
			}()
		}
		go func() {
			defer wg.Done()
			<-start
			p.Close()
		}()
		close(start)
		wg.Wait()
		p.Close() // waits for the workers, whichever Submit came last
		if a, n := accepted.Load(), ran.Load(); a != n {
			t.Fatalf("round %d: %d tasks accepted, %d ran", r, a, n)
		}
	}
}

func TestPoolParksWhenIdle(t *testing.T) {
	// The idle phase is bounded: after a burst, every worker must stop
	// polling and park, far sooner than this bound, so an idle pool
	// burns no CPU.
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	const n = 1000
	wg.Add(n)
	for i := 0; i < n; i++ {
		_ = p.Submit(wg.Done)
	}
	wg.Wait()
	const bound = 100 * time.Millisecond
	deadline := time.Now().Add(bound)
	for {
		p.mu.Lock()
		parked := p.sleepers
		p.mu.Unlock()
		if parked == p.Size() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers parked %v after the burst", parked, p.Size(), bound)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
