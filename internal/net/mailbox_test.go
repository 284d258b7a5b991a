package net_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"op2hpx/internal/dist"
	rnet "op2hpx/internal/net"
)

// mailboxPair is one two-rank transport seen through the receive-side
// contract both transports take from dist.Mailbox: rank 0 sends, rank 1
// receives.
type mailboxPair struct {
	send func(payload []float64) error
	recv func() dist.RecvFuture
	// flush returns once every message sent so far sits in rank 1's
	// mailbox.
	flush func(t *testing.T)
	// poison poisons rank 1's transport.
	poison func(err error)
	// recycle returns a received payload to rank 1's buffer pool.
	recycle func(msg []float64)
	// exit makes rank 0 leave cleanly and returns once rank 1 has seen
	// it go (TCP only: in-process ranks never exit).
	exit func(t *testing.T)
}

func commPair(*testing.T) *mailboxPair {
	c := dist.NewComm(2)
	return &mailboxPair{
		send:    func(p []float64) error { return c.Send(0, 1, p) },
		recv:    func() dist.RecvFuture { return c.Recv(1, 0) },
		flush:   func(*testing.T) {}, // Send delivers synchronously
		poison:  c.Poison,
		recycle: func([]float64) {},
	}
}

// bufPool is a minimal per-rank buffer pool for a raw transport, so
// decoded payloads recycle instead of allocating.
type bufPool struct {
	mu   sync.Mutex
	free [][]float64
}

func (p *bufPool) get(_, n int) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range p.free {
		if cap(b) >= n {
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			return b[:0]
		}
	}
	return make([]float64, 0, n)
}

func (p *bufPool) put(_ int, b []float64) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

func tcpPair(t *testing.T) *mailboxPair {
	lns, addrs := listeners(t, 2)
	trs := make([]*rnet.Transport, 2)
	for r := range trs {
		tr, err := rnet.New(rnet.Config{
			Rank: r, Peers: addrs, Meta: "mailbox", Listener: lns[r],
			HeartbeatEvery: -1, // no frames but the test's own
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		trs[r] = tr
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r, tr := range trs {
		wg.Add(1)
		go func() { defer wg.Done(); errs[r] = startT(tr) }()
	}
	wg.Wait()
	t.Cleanup(func() { trs[0].Close(); trs[1].Close() })
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("bootstrap: %v / %v", errs[0], errs[1])
	}
	t0, t1 := trs[0], trs[1]
	pool := &bufPool{}
	t1.BindBufferPool(pool.get, pool.put)
	t0.ReserveFrames(4, 8)
	return &mailboxPair{
		send: func(p []float64) error { return t0.Send(0, 1, p) },
		recv: func() dist.RecvFuture { return t1.Recv(1, 0) },
		// A ctl frame rides the same connection behind every halo frame
		// sent before it, so once it is received they are all delivered.
		flush: func(t *testing.T) {
			if err := t0.SendCtl(0, 1, []float64{0}); err != nil {
				t.Fatal(err)
			}
			if _, err := t1.RecvCtl(1, 0).Get(); err != nil {
				t.Fatal(err)
			}
		},
		poison:  t1.Poison,
		recycle: func(msg []float64) { pool.put(0, msg) },
		exit: func(t *testing.T) {
			before := t1.Stats().FramesRecv
			if err := t0.Close(); err != nil {
				t.Fatal(err)
			}
			// Close returns once GOODBYE is written; rank 1 counts the
			// frame just before it handles it.
			deadline := time.Now().Add(5 * time.Second)
			for t1.Stats().FramesRecv == before {
				if time.Now().After(deadline) {
					t.Fatal("rank 1 never read rank 0's GOODBYE")
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond)
		},
	}
}

func getOne(t *testing.T, f dist.RecvFuture, want float64) {
	t.Helper()
	msg, err := f.Get()
	if err != nil {
		t.Fatal(err)
	}
	if len(msg) != 1 || msg[0] != want {
		t.Fatalf("received %v, want [%g]", msg, want)
	}
}

// TestMailboxContract runs the receive-side contract against the
// in-process communicator and a loopback TCP pair: FIFO matching in
// both arrival orders, first poison wins, a zero-allocation
// steady-state cycle, and (TCP) a receive posted after a peer's clean
// exit failing typed.
func TestMailboxContract(t *testing.T) {
	transports := []struct {
		name string
		open func(t *testing.T) *mailboxPair
	}{
		{"comm", commPair},
		{"tcp", tcpPair},
	}
	for _, tr := range transports {
		t.Run(tr.name+"/recv-first", func(t *testing.T) {
			p := tr.open(t)
			f1, f2 := p.recv(), p.recv()
			if f1.Ready() || f2.Ready() {
				t.Fatal("a receive resolved before anything was sent")
			}
			for _, v := range []float64{1, 2} {
				if err := p.send([]float64{v}); err != nil {
					t.Fatal(err)
				}
			}
			getOne(t, f1, 1)
			getOne(t, f2, 2)
		})

		t.Run(tr.name+"/send-first", func(t *testing.T) {
			p := tr.open(t)
			for _, v := range []float64{3, 4} {
				if err := p.send([]float64{v}); err != nil {
					t.Fatal(err)
				}
			}
			p.flush(t)
			f3, f4 := p.recv(), p.recv()
			if !f3.Ready() || !f4.Ready() {
				t.Fatal("a receive of an already queued message is not resolved on return")
			}
			getOne(t, f3, 3)
			getOne(t, f4, 4)
		})

		t.Run(tr.name+"/first-poison-wins", func(t *testing.T) {
			p := tr.open(t)
			first := errors.New("first cause")
			second := errors.New("second cause")
			waiters := []dist.RecvFuture{p.recv(), p.recv()}
			p.poison(first)
			p.poison(second)
			for i, f := range append(waiters, p.recv()) {
				done := make(chan error, 1)
				go func() { _, err := f.Get(); done <- err }()
				select {
				case err := <-done:
					if !errors.Is(err, first) || errors.Is(err, second) {
						t.Fatalf("receive %d: got %v, want the first cause only", i, err)
					}
					if !strings.Contains(err.Error(), "recv 1←0 aborted") {
						t.Fatalf("receive %d: error does not name its pair: %v", i, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("receive %d never failed after the poison", i)
				}
			}
		})

		t.Run(tr.name+"/zero-alloc-cycle", func(t *testing.T) {
			if raceEnabled {
				t.Skip("allocation counts are not steady under the race detector")
			}
			p := tr.open(t)
			payload := []float64{5}
			cycle := func() {
				f := p.recv()
				if err := p.send(payload); err != nil {
					t.Fatal(err)
				}
				msg, err := f.Get()
				if err != nil || len(msg) != 1 || msg[0] != 5 {
					t.Fatalf("received %v, %v", msg, err)
				}
				f.Release()
				p.recycle(msg)
			}
			for i := 0; i < 16; i++ {
				cycle()
			}
			if a := testing.AllocsPerRun(200, cycle); a != 0 {
				t.Fatalf("steady-state Recv/Send/Get/Release allocates %.1f times per cycle, want 0", a)
			}
		})

		if tr.name == "tcp" {
			t.Run(tr.name+"/recv-after-exit", func(t *testing.T) {
				p := tr.open(t)
				p.exit(t)
				f := p.recv()
				// Posted after the exit, the receive fails on return. On a
				// loaded machine it can still beat the GOODBYE's handling;
				// it then fails when the GOODBYE finds it waiting.
				posted := !f.Ready()
				_, err := f.Get()
				if !errors.Is(err, dist.ErrRankFailed) || !strings.Contains(err.Error(), "exited") {
					t.Fatalf("receive from an exited peer: got %v, want ErrRankFailed naming the exit", err)
				}
				if posted {
					t.Logf("the receive was posted before rank 1 handled the GOODBYE: %v", err)
				} else if !strings.Contains(err.Error(), "has exited") {
					t.Fatalf("receive after the exit: got %v, want the exited-peer error", err)
				}
			})
		}
	}
}
