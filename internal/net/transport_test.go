// Integration tests for the TCP rank transport: SPMD ranks as
// goroutines of ONE test process, each with its own runtime and its own
// socket — real frames on real localhost connections, every rank
// executing the identical airfoil program. The acceptance bar is the
// same as the in-process engine's: bitwise-identical results to the
// serial golden, a zero-allocation wire path in steady state, and typed
// convergence for every failure mode a socket can produce.
package net_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	stdnet "net"
	"strings"
	"sync"
	"testing"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/dist"
	"op2hpx/internal/fault"
	rnet "op2hpx/internal/net"
	"op2hpx/op2"
)

const (
	tNX, tNY = 24, 12
	tIters   = 5
)

// listeners binds n ephemeral localhost listeners and returns them with
// their resolved addresses — the rendezvous list every rank shares.
func listeners(t *testing.T, n int) ([]stdnet.Listener, []string) {
	t.Helper()
	lns := make([]stdnet.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// serialGolden computes the bit patterns every TCP run must reproduce.
func serialGolden(t *testing.T) (uint64, []uint64) {
	t.Helper()
	rt := op2.MustNew()
	defer rt.Close()
	app, err := airfoil.NewApp(tNX, tNY, rt)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := app.Run(tIters)
	if err != nil {
		t.Fatal(err)
	}
	q := app.M.Q.Data()
	qBits := make([]uint64, len(q))
	for i, v := range q {
		qBits[i] = math.Float64bits(v)
	}
	return math.Float64bits(rms), qBits
}

// rankOut is one SPMD rank's result.
type rankOut struct {
	rms  float64
	q    []float64
	err  error
	rt   *op2.Runtime
	net  rnet.Stats
	netO bool
}

// runWorld executes the airfoil program on every rank of an n-rank TCP
// world, one goroutine per rank, and returns the per-rank outcomes.
// mutate optionally adjusts rank r's transport config (fault hooks).
func runWorld(t *testing.T, n, iters int, mutate func(r int, cfg *op2.TCPConfig), extra ...op2.Option) []rankOut {
	t.Helper()
	lns, addrs := listeners(t, n)
	outs := make([]rankOut, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := op2.TCPConfig{
				Rank:     r,
				Peers:    addrs,
				Meta:     fmt.Sprintf("airfoil-%dx%d", tNX, tNY),
				Listener: lns[r],
			}
			if mutate != nil {
				mutate(r, &cfg)
			}
			rt, err := op2.New(append([]op2.Option{op2.WithTCPTransport(cfg)}, extra...)...)
			if err != nil {
				outs[r].err = fmt.Errorf("rank %d: new: %w", r, err)
				return
			}
			defer rt.Close()
			outs[r].rt = rt
			app, err := airfoil.NewApp(tNX, tNY, rt)
			if err != nil {
				outs[r].err = fmt.Errorf("rank %d: app: %w", r, err)
				return
			}
			rms, err := app.Run(iters)
			if err != nil {
				outs[r].err = fmt.Errorf("rank %d: %w", r, err)
				outs[r].net, outs[r].netO = rt.NetStats()
				return
			}
			if err := app.Sync(); err != nil {
				outs[r].err = fmt.Errorf("rank %d: sync: %w", r, err)
				return
			}
			outs[r].rms = rms
			outs[r].q = append([]float64(nil), app.M.Q.Data()...)
			outs[r].net, outs[r].netO = rt.NetStats()
		}(r)
	}
	wg.Wait()
	return outs
}

// TestAirfoilTCPBitwise is the tentpole acceptance test: airfoil over
// real TCP loopback at ranks 2 and 4 must be bitwise-identical — RMS
// and the whole flow field — to the serial golden, on every rank.
func TestAirfoilTCPBitwise(t *testing.T) {
	rmsRef, qRef := serialGolden(t)
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("ranks%d", n), func(t *testing.T) {
			outs := runWorld(t, n, tIters, nil)
			for r, o := range outs {
				if o.err != nil {
					t.Fatalf("rank %d failed: %v", r, o.err)
				}
				if math.Float64bits(o.rms) != rmsRef {
					t.Fatalf("rank %d: RMS %x differs bitwise from serial %x",
						r, math.Float64bits(o.rms), rmsRef)
				}
				if len(o.q) != len(qRef) {
					t.Fatalf("rank %d: q length %d, serial %d", r, len(o.q), len(qRef))
				}
				for i := range o.q {
					if math.Float64bits(o.q[i]) != qRef[i] {
						t.Fatalf("rank %d: q[%d] differs bitwise from serial", r, i)
					}
				}
				if !o.netO {
					t.Fatalf("rank %d: no NetStats from a TCP runtime", r)
				}
				if o.net.BytesSent == 0 || o.net.BytesRecv == 0 {
					t.Fatalf("rank %d: no wire traffic recorded (%+v) — did this even use TCP?", r, o.net)
				}
			}
			t.Logf("ranks=%d: rank0 wire: %d B sent / %d B recv, %d frames out",
				n, outs[0].net.BytesSent, outs[0].net.BytesRecv, outs[0].net.FramesSent)
		})
	}
}

// TestTCPZeroAllocWirePath extends the pooled-buffer guard to the wire:
// from the first timestep on, nothing may allocate a halo buffer or a
// wire frame — the frame pool's miss counter and the engine's buffer
// pool counter both stay at their pre-run values.
func TestTCPZeroAllocWirePath(t *testing.T) {
	const n = 2
	lns, addrs := listeners(t, n)
	type probe struct {
		err error
	}
	outs := make([]probe, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rt, err := op2.New(op2.WithTCPTransport(op2.TCPConfig{
				Rank: r, Peers: addrs, Meta: "zeroalloc", Listener: lns[r],
			}))
			if err != nil {
				outs[r].err = err
				return
			}
			defer rt.Close()
			app, err := airfoil.NewApp(tNX, tNY, rt)
			if err != nil {
				outs[r].err = err
				return
			}
			// No warm-up: the step plan reserves its frames and inbound
			// buffers when it compiles (and each sharded dat its flush
			// traffic), so nothing may allocate from the first step on.
			s0, _ := rt.NetStats()
			a0, _ := rt.HaloBufferStats()
			if _, err := app.Run(3); err != nil {
				outs[r].err = err
				return
			}
			if _, err := app.Run(4); err != nil {
				outs[r].err = err
				return
			}
			if _, err := app.Run(4); err != nil {
				outs[r].err = err
				return
			}
			s1, _ := rt.NetStats()
			a1, _ := rt.HaloBufferStats()
			if s1.FrameAllocs > s0.FrameAllocs {
				outs[r].err = fmt.Errorf("rank %d: allocated %d new wire frames (of %d gets) from step 1",
					r, s1.FrameAllocs-s0.FrameAllocs, s1.FrameGets-s0.FrameGets)
				return
			}
			// A peer's first message can reach this process before it
			// compiled the plan; the reservation then adopts that buffer
			// and the miss count drops back, so only growth is a failure.
			if a1 > a0 {
				outs[r].err = fmt.Errorf("rank %d: allocated %d new halo buffers over TCP from step 1", r, a1-a0)
				return
			}
		}(r)
	}
	wg.Wait()
	for r, o := range outs {
		if o.err != nil {
			t.Fatalf("rank %d: %v", r, o.err)
		}
	}
}

// failWithin asserts every rank of a faulted world dies with a typed
// error, and at least one matches want, all inside the bound.
func failWithin(t *testing.T, outs []rankOut, want error) {
	t.Helper()
	sawWant := false
	for r, o := range outs {
		if o.err == nil {
			t.Fatalf("rank %d finished cleanly under an injected socket fault", r)
		}
		typed := false
		for _, sentinel := range []error{op2.ErrHaloTimeout, op2.ErrHaloCorrupt, op2.ErrRankFailed, op2.ErrCommOverflow} {
			if errors.Is(o.err, sentinel) {
				typed = true
			}
		}
		if !typed {
			t.Fatalf("rank %d died UNTYPED: %v", r, o.err)
		}
		if errors.Is(o.err, want) {
			sawWant = true
		}
		t.Logf("rank %d: %v", r, o.err)
	}
	if !sawWant {
		t.Fatalf("no rank failed with %v", want)
	}
}

// runFaulted runs a 2-rank world with a socket fault on rank 1's
// connection to rank 0 and a tight liveness budget, bounded by a
// watchdog: a hang instead of a typed verdict is the failure mode this
// machinery exists to prevent.
func runFaulted(t *testing.T, rule fault.SocketRule, iters int) []rankOut {
	t.Helper()
	done := make(chan []rankOut, 1)
	go func() {
		done <- runWorld(t, 2, iters, func(r int, cfg *op2.TCPConfig) {
			cfg.HeartbeatEvery = 25 * time.Millisecond
			cfg.HeartbeatMiss = 8
			cfg.WrapConn = fault.WrapSocket(rule)
		}, op2.WithHaloTimeout(2*time.Second))
	}()
	select {
	case outs := <-done:
		return outs
	case <-time.After(15 * time.Second):
		t.Fatalf("faulted world still running after 15s — failure never converged")
		return nil
	}
}

// TestTCPConnReset: a mid-run hard connection loss must surface as
// ErrRankFailed on both sides — never a silent reconnect.
func TestTCPConnReset(t *testing.T) {
	outs := runFaulted(t, fault.SocketRule{Local: 1, Peer: 0, Action: fault.SockReset, AfterWrites: 8}, 50)
	failWithin(t, outs, op2.ErrRankFailed)
}

// TestTCPTruncatedFrame: a frame cut mid-payload is the corruption
// class — the receiver must classify it ErrHaloCorrupt.
func TestTCPTruncatedFrame(t *testing.T) {
	outs := runFaulted(t, fault.SocketRule{Local: 1, Peer: 0, Action: fault.SockTruncate, AfterWrites: 8}, 50)
	failWithin(t, outs, op2.ErrHaloCorrupt)
}

// TestTCPStalledWriter: a peer that stops draining without dying must
// converge via liveness — write deadline on one side, heartbeat
// starvation on the other, both ErrHaloTimeout.
func TestTCPStalledWriter(t *testing.T) {
	outs := runFaulted(t, fault.SocketRule{Local: 1, Peer: 0, Action: fault.SockStall, AfterWrites: 8}, 50)
	failWithin(t, outs, op2.ErrHaloTimeout)
}

// TestTCPStalledBarrier: a writer that stalls on its first frame — the
// bootstrap barrier token — fails that rank's link by write deadline,
// and the peer still waiting in the barrier must fail with it, typed,
// instead of waiting out the whole bootstrap window.
func TestTCPStalledBarrier(t *testing.T) {
	outs := runFaulted(t, fault.SocketRule{Local: 1, Peer: 0, Action: fault.SockStall, AfterWrites: 0}, 50)
	failWithin(t, outs, op2.ErrHaloTimeout)
	if !errors.Is(outs[0].err, op2.ErrRankFailed) || !strings.Contains(outs[0].err.Error(), "barrier") {
		t.Fatalf("rank 0 should fail in the barrier with its lost link, got: %v", outs[0].err)
	}
}

// TestTCPBootstrapValidation: mismatched partition metadata must refuse
// the rendezvous — two daemons from different job configurations can
// never exchange halo state.
func TestTCPBootstrapValidation(t *testing.T) {
	outs := runWorld(t, 2, 1, func(r int, cfg *op2.TCPConfig) {
		cfg.Meta = fmt.Sprintf("world-%d", r) // every rank claims a different job
		cfg.DialRetries = 3
		cfg.DialBackoff = 5 * time.Millisecond
	})
	for r, o := range outs {
		if o.err == nil {
			t.Fatalf("rank %d bootstrapped despite mismatched metadata", r)
		}
		if !strings.Contains(o.err.Error(), "metadata") && !strings.Contains(o.err.Error(), "bootstrap") {
			t.Fatalf("rank %d: expected a bootstrap/metadata refusal, got: %v", r, o.err)
		}
	}
}

// TestTCPCleanTeardown: Close after a complete run is a GOODBYE on
// every connection — no typed failure, no error from Close, and a
// receive posted against an exited peer fails ErrRankFailed instead of
// hanging.
func TestTCPCleanTeardown(t *testing.T) {
	lns, addrs := listeners(t, 2)
	mk := func(r int) *rnet.Transport {
		tr, err := rnet.New(rnet.Config{
			Rank: r, Peers: addrs, Meta: "teardown", Listener: lns[r],
			HeartbeatEvery: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		return tr
	}
	t0, t1 := mk(0), mk(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var e0, e1 error
	go func() { defer wg.Done(); e0 = startT(t0) }()
	go func() { defer wg.Done(); e1 = startT(t1) }()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("bootstrap: %v / %v", e0, e1)
	}

	// One healthy round-trip on the ctl channel.
	if err := t1.SendCtl(1, 0, []float64{42}); err != nil {
		t.Fatalf("send: %v", err)
	}
	fut := t0.RecvCtl(0, 1)
	msg, err := fut.Get()
	if err != nil || len(msg) != 1 || msg[0] != 42 {
		t.Fatalf("recv: %v %v", msg, err)
	}

	// Rank 1 exits cleanly. Rank 0 must observe GOODBYE — a later
	// receive fails typed rather than waiting for data that will never
	// come, and closing rank 0 afterwards is clean.
	if err := t1.Close(); err != nil {
		t.Fatalf("close t1: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		fut := t0.RecvCtl(0, 1)
		if _, err = fut.Get(); err != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(err, dist.ErrRankFailed) {
		t.Fatalf("recv from exited peer: got %v, want ErrRankFailed", err)
	}
	if !strings.Contains(err.Error(), "exited") {
		t.Fatalf("exit error should name the clean exit, got: %v", err)
	}
	if err := t0.Close(); err != nil {
		t.Fatalf("close t0: %v", err)
	}
}

// startT bootstraps a raw transport with a background context.
func startT(tr *rnet.Transport) error {
	return tr.Start(context.Background())
}

// TestTCPAbortPropagation: poisoning one transport must actively
// propagate — the peer's pending receive resolves ErrRankFailed with
// the original cause's text, within a heartbeat, not a halo deadline.
func TestTCPAbortPropagation(t *testing.T) {
	lns, addrs := listeners(t, 2)
	mk := func(r int) *rnet.Transport {
		tr, err := rnet.New(rnet.Config{
			Rank: r, Peers: addrs, Meta: "abort", Listener: lns[r],
			HeartbeatEvery: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		return tr
	}
	t0, t1 := mk(0), mk(1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = startT(t0) }()
	go func() { defer wg.Done(); _ = startT(t1) }()
	wg.Wait()
	defer t0.Close()
	defer t1.Close()

	fut := t0.RecvCtl(0, 1) // rank 0 waits on data rank 1 will never send
	t1.Poison(fmt.Errorf("%w: simulated engine failure on rank 1", dist.ErrRankFailed))

	done := make(chan error, 1)
	go func() { _, err := fut.Get(); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, dist.ErrRankFailed) {
			t.Fatalf("got %v, want ErrRankFailed", err)
		}
		if !strings.Contains(err.Error(), "aborted") || !strings.Contains(err.Error(), "simulated engine failure") {
			t.Fatalf("abort should carry the peer's cause, got: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending receive never unblocked after peer poison — abort propagation broken")
	}
}
