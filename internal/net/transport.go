package net

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"op2hpx/internal/dist"
	"op2hpx/internal/obs"
)

// Logical channels multiplexed over one connection per pair. Halo and
// ctl traffic must never share a FIFO: worker halo sends and driver
// collective sends interleave nondeterministically in time, and a
// single queue would mis-match their receives. Each channel keeps its
// own per-pair FIFO, so the engine's matching contracts hold per
// channel exactly as they do in-process.
const (
	chHalo = 0
	chCtl  = 1
	nChans = 2
)

// Config configures a Transport. Rank and Peers are required; zero
// durations and counts take the documented defaults.
type Config struct {
	// Rank is the rank this process hosts: an index into Peers.
	Rank int
	// Peers lists every rank's listen address, in rank order. len(Peers)
	// is the world size.
	Peers []string
	// Meta is the partition/job signature exchanged at HELLO; peers with
	// a different Meta refuse to bootstrap (two daemons from different
	// job configurations can never silently exchange halo state).
	Meta string
	// Listener optionally provides a pre-bound listener (tests bind
	// 127.0.0.1:0 first and distribute the real addresses via Peers).
	// When nil, New listens on Peers[Rank].
	Listener net.Listener

	// DialTimeout bounds one bootstrap dial attempt (default 2s).
	DialTimeout time.Duration
	// DialRetries bounds how many times a bootstrap dial is retried
	// (default 40). Retry exists during bootstrap ONLY: peers start in
	// any order, so "connection refused" is expected for a while. A
	// connection lost after bootstrap is a permanent typed failure.
	DialRetries int
	// DialBackoff is the initial pause between bootstrap dial attempts;
	// it doubles per attempt up to 1s (default 50ms).
	DialBackoff time.Duration

	// HeartbeatEvery is the beacon interval per connection (default
	// 250ms; < 0 disables heartbeats and the prober).
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many silent intervals the liveness prober
	// tolerates before declaring the peer dead with dist.ErrHaloTimeout
	// (default 8).
	HeartbeatMiss int
	// WriteTimeout bounds one frame write; a peer that stops draining
	// stalls our writer, and the expired deadline poisons the transport
	// with dist.ErrHaloTimeout (default: the heartbeat miss window, or
	// 30s with heartbeats disabled).
	WriteTimeout time.Duration
	// SendDepth bounds the queued-but-unwritten frames per peer
	// (default 4096); past it Send fails with dist.ErrCommOverflow.
	SendDepth int

	// Metrics optionally exports op2_net_* series into a registry.
	Metrics *obs.Registry
	// WrapConn optionally decorates each established connection after
	// the HELLO handshake — the socket-level fault-injection hook
	// (internal/fault wraps conns to force resets, truncation, stalls).
	WrapConn func(local, peer int, c net.Conn) net.Conn
}

// Stats are the transport's wire counters.
type Stats struct {
	BytesSent       int64
	BytesRecv       int64
	FramesSent      int64
	FramesRecv      int64
	Reconnects      int64 // bootstrap dial retries (the only reconnects that exist)
	HeartbeatMisses int64 // prober ticks that found a peer past one silent interval
	FrameAllocs     int64 // wire-frame pool misses — zero once the step plan's reservation covers its traffic
	FrameGets       int64 // wire frames handed out
}

// poolHooks is the engine's message-buffer pool binding (PoolBinder).
type poolHooks struct {
	get func(rank, n int) []float64
	put func(rank int, b []float64)
}

// peerConn is one established connection to a peer rank: a writer
// goroutine draining an outbound frame queue (heartbeats ride the same
// goroutine, so conn writes never interleave) and a reader goroutine
// demuxing inbound frames into the transport's mailbox.
type peerConn struct {
	rank int
	conn net.Conn

	mu      sync.Mutex // guards closing + the out send
	closing bool
	abort   []byte // teardown payload: nil → GOODBYE, else ABORT with this cause

	out        chan []byte
	writerDone chan struct{}
	readerDone chan struct{}

	lastRecv   atomic.Int64 // unix nanos of the last frame (any type) read
	sawGoodbye atomic.Bool
}

// Transport is the TCP rank transport: a halo+ctl dist.Mailbox behind
// the wire. Connection readers deliver decoded frames into the mailbox,
// receives are posted on it, and its poison is the transport's failure
// state. Build with New (binds the listener), bootstrap with Start
// (rendezvous + HELLO + barrier), hand to the engine (it detects
// dist.RankedTransport and enters SPMD mode), and Close for a clean
// GOODBYE teardown. All methods are safe for concurrent use.
type Transport struct {
	cfg  Config
	rank int
	n    int
	ln   net.Listener

	peers []*peerConn // by rank; nil at self (and everywhere when n == 1)
	mb    *dist.Mailbox

	pool   atomic.Pointer[poolHooks]
	frames dist.Pool[byte] // outbound wire frames, returned by the writers

	started atomic.Bool
	closed  atomic.Bool
	closeMu sync.Mutex

	barrierCh chan int
	stopProbe chan struct{}
	probeOnce sync.Once
	wg        sync.WaitGroup

	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	framesSent atomic.Int64
	framesRecv atomic.Int64
	reconnects atomic.Int64
	hbMisses   atomic.Int64

	connectHist *obs.Histogram
}

// Compile-time interface checks: the transport is what the engine's
// SPMD mode requires.
var (
	_ dist.RankedTransport = (*Transport)(nil)
	_ dist.Poisoner        = (*Transport)(nil)
	_ dist.PoolBinder      = (*Transport)(nil)
	_ dist.FrameReserver   = (*Transport)(nil)
)

// New validates the configuration, applies defaults, binds the listener
// and registers the op2_net_* metrics. The transport is not connected
// until Start.
func New(cfg Config) (*Transport, error) {
	n := len(cfg.Peers)
	if n < 1 {
		return nil, fmt.Errorf("net: no peers configured")
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("net: rank %d outside peer list [0,%d)", cfg.Rank, n)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.DialRetries <= 0 {
		cfg.DialRetries = 40
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 50 * time.Millisecond
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = 8
	}
	if cfg.WriteTimeout <= 0 {
		if cfg.HeartbeatEvery > 0 {
			cfg.WriteTimeout = time.Duration(cfg.HeartbeatMiss) * cfg.HeartbeatEvery
		} else {
			cfg.WriteTimeout = 30 * time.Second
		}
		if cfg.WriteTimeout < 2*time.Second {
			cfg.WriteTimeout = 2 * time.Second
		}
	}
	if cfg.SendDepth <= 0 {
		cfg.SendDepth = 4096
	}
	t := &Transport{
		cfg:       cfg,
		rank:      cfg.Rank,
		n:         n,
		ln:        cfg.Listener,
		peers:     make([]*peerConn, n),
		mb:        dist.NewMailbox(nChans, n),
		barrierCh: make(chan int, n),
		stopProbe: make(chan struct{}),
	}
	if t.ln == nil && n > 1 {
		ln, err := net.Listen("tcp", cfg.Peers[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("net: rank %d listen on %s: %w", cfg.Rank, cfg.Peers[cfg.Rank], err)
		}
		t.ln = ln
	}
	t.registerMetrics()
	return t, nil
}

// registerMetrics exports the wire counters as func-backed series (they
// sum across transports sharing a registry, like every op2_* series).
func (t *Transport) registerMetrics() {
	r := t.cfg.Metrics
	if r == nil {
		return
	}
	r.CounterFunc("op2_net_bytes_sent_total",
		"Bytes written to peer rank connections (frames and heartbeats).",
		func() float64 { return float64(t.bytesSent.Load()) })
	r.CounterFunc("op2_net_bytes_recv_total",
		"Bytes read from peer rank connections.",
		func() float64 { return float64(t.bytesRecv.Load()) })
	r.CounterFunc("op2_net_reconnects_total",
		"Bootstrap dial retries (mid-run reconnects do not exist: a lost connection is a typed permanent failure).",
		func() float64 { return float64(t.reconnects.Load()) })
	r.CounterFunc("op2_net_heartbeat_misses_total",
		"Liveness prober ticks that found a peer silent past one heartbeat interval.",
		func() float64 { return float64(t.hbMisses.Load()) })
	t.connectHist = r.Histogram("op2_net_connect_seconds",
		"Latency of one successful bootstrap connection (dial/accept through HELLO).",
		obs.DurationBuckets)
}

// Size implements dist.Transport.
func (t *Transport) Size() int { return t.n }

// LocalRank implements dist.RankedTransport: the rank this process
// hosts.
func (t *Transport) LocalRank() int { return t.rank }

// Addr reports the listener's address (useful with a :0 Listener).
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Stats snapshots the wire counters.
func (t *Transport) Stats() Stats {
	fs := t.frames.Stats()
	return Stats{
		BytesSent:       t.bytesSent.Load(),
		BytesRecv:       t.bytesRecv.Load(),
		FramesSent:      t.framesSent.Load(),
		FramesRecv:      t.framesRecv.Load(),
		Reconnects:      t.reconnects.Load(),
		HeartbeatMisses: t.hbMisses.Load(),
		FrameAllocs:     fs.Misses,
		FrameGets:       fs.Gets,
	}
}

// ReserveFrames implements dist.FrameReserver: the engine reserves each
// step plan's outbound frames when the plan compiles.
func (t *Transport) ReserveFrames(n, floats int) { t.frames.Reserve(n, headerLen+8*floats) }

// BindBufferPool implements dist.PoolBinder: inbound payloads from rank
// r decode into buffers from pool r (the engine worker returns them
// there after scattering) and outbound halo payloads recycle into the
// local pool once framed — the zero-allocation cycle closed across the
// wire.
func (t *Transport) BindBufferPool(get func(rank, n int) []float64, put func(rank int, b []float64)) {
	t.pool.Store(&poolHooks{get: get, put: put})
}

// Send implements dist.Transport: frame the payload onto dst's writer
// queue and recycle the pooled message buffer. Never blocks; a full
// queue is dist.ErrCommOverflow and poisons the transport.
func (t *Transport) Send(src, dst int, payload []float64) error {
	return t.send(chHalo, src, dst, payload, true)
}

// SendCtl implements dist.Collective. The payload is borrowed, not
// recycled: collective senders (reduction partials, flush shards) keep
// ownership of their buffers.
func (t *Transport) SendCtl(src, dst int, payload []float64) error {
	return t.send(chCtl, src, dst, payload, false)
}

func (t *Transport) send(ch int, src, dst int, payload []float64, recycle bool) error {
	if src != t.rank {
		return fmt.Errorf("net: send from rank %d on the process hosting rank %d", src, t.rank)
	}
	if dst < 0 || dst >= t.n || dst == t.rank {
		return fmt.Errorf("net: send %d→%d: no such peer", src, dst)
	}
	if err := t.mb.Err(); err != nil {
		return fmt.Errorf("net: send %d→%d on poisoned transport: %w", src, dst, err)
	}
	p := t.peers[dst]
	if p == nil {
		return fmt.Errorf("net: send %d→%d before bootstrap", src, dst)
	}
	typ := byte(fHalo)
	if ch == chCtl {
		typ = fCtl
	}
	nb := 8 * len(payload)
	b := t.frames.Get(headerLen + nb)
	b = b[:headerLen]
	putHeader(b, typ, src, nb)
	b = encodeFloats(b, payload)

	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		t.frames.Put(b)
		if err := t.mb.Err(); err != nil {
			return fmt.Errorf("net: send %d→%d on poisoned transport: %w", src, dst, err)
		}
		return fmt.Errorf("net: send %d→%d on closed transport", src, dst)
	}
	select {
	case p.out <- b:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		t.frames.Put(b)
		err := fmt.Errorf("%w: net: pair %d→%d exceeded %d queued frames: peer not draining",
			dist.ErrCommOverflow, src, dst, cap(p.out))
		t.poison(err)
		return err
	}
	if recycle {
		if h := t.pool.Load(); h != nil {
			h.put(src, payload)
		}
	}
	return nil
}

// Recv implements dist.Transport for the halo channel.
func (t *Transport) Recv(dst, src int) dist.RecvFuture { return t.recv(chHalo, dst, src) }

// RecvCtl implements dist.Collective.
func (t *Transport) RecvCtl(dst, src int) dist.RecvFuture { return t.recv(chCtl, dst, src) }

func (t *Transport) recv(ch int, dst, src int) dist.RecvFuture {
	if dst != t.rank || src < 0 || src >= t.n || src == dst {
		return t.mb.Fail(fmt.Errorf("net: recv %d←%d: not a peer pair of the process hosting rank %d", dst, src, t.rank))
	}
	return t.mb.Recv(ch, dst, src)
}

// deliver hands one decoded payload to the mailbox. A poisoned mailbox
// refuses it, and the buffer goes straight back to its pool.
func (t *Transport) deliver(ch int, src int, msg []float64) {
	if _, err := t.mb.Deliver(ch, t.rank, src, msg); err != nil {
		if h := t.pool.Load(); h != nil {
			h.put(src, msg)
		}
	}
}

// poison breaks the mailbox (dist.Mailbox.Poison: the first cause wins
// and every waiting receive fails wrapping it) and, when this call was
// the first, starts the abort teardown: peers get an ABORT frame naming
// the cause, so a failure converges cluster-wide within a heartbeat, not
// a halo deadline per hop.
func (t *Transport) poison(cause error) {
	if !t.mb.Poison(cause) || !t.started.Load() {
		return
	}
	abort := []byte(t.mb.Err().Error())
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for _, p := range t.peers {
			if p != nil {
				p.close(abort)
			}
		}
	}()
}

// Poison implements dist.Poisoner: the engine escalates a permanent
// failure through here so every pending receive (local and, via ABORT
// propagation, on the peers) unblocks typed instead of deadlocking.
func (t *Transport) Poison(err error) { t.poison(err) }

// close initiates this peer connection's teardown: the writer drains
// its queue, emits GOODBYE (abort == nil) or ABORT, and closes the
// conn. Idempotent; the first caller's verdict wins.
func (p *peerConn) close(abort []byte) {
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return
	}
	p.closing = true
	p.abort = abort
	close(p.out)
	p.mu.Unlock()
}

// drainTimeout bounds how long Close waits for a writer to flush its
// queue before force-closing the connection out from under it.
const drainTimeout = 2 * time.Second

// Close tears the transport down cleanly: GOODBYE to every peer (after
// draining queued frames), connections and listener closed, goroutines
// joined. After a poison, the abort teardown has already run and Close
// just joins it. Idempotent.
func (t *Transport) Close() error {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	if t.closed.Load() {
		return nil
	}
	t.closed.Store(true)
	t.probeOnce.Do(func() { close(t.stopProbe) })
	for _, p := range t.peers {
		if p != nil {
			p.close(nil)
		}
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		select {
		case <-p.writerDone:
		case <-time.After(drainTimeout):
			// Writer stuck (peer not reading, or a stalled-write fault):
			// force the conn closed, which unblocks the write.
		}
		p.conn.Close()
	}
	if t.ln != nil {
		t.ln.Close()
	}
	t.wg.Wait()
	return nil
}

// writer is the per-connection write goroutine: the single owner of
// conn writes. It drains the outbound queue, interleaves heartbeats,
// and on queue close emits the teardown frame (GOODBYE or ABORT).
func (t *Transport) writer(p *peerConn) {
	defer t.wg.Done()
	defer close(p.writerDone)
	var hbC <-chan time.Time
	if t.cfg.HeartbeatEvery > 0 {
		tick := time.NewTicker(t.cfg.HeartbeatEvery)
		defer tick.Stop()
		hbC = tick.C
	}
	var hb [headerLen]byte
	putHeader(hb[:], fHeartbeat, t.rank, 0)

	write := func(b []byte) bool {
		p.conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout)) //nolint:errcheck // best effort
		nw, err := p.conn.Write(b)
		t.bytesSent.Add(int64(nw))
		if err != nil {
			t.connLost(p, "write", err)
			return false
		}
		t.framesSent.Add(1)
		return true
	}

	for {
		select {
		case b, ok := <-p.out:
			if !ok {
				// Queue closed after draining every buffered frame: emit
				// the teardown verdict and hang up.
				p.mu.Lock()
				abort := p.abort
				p.mu.Unlock()
				var fin []byte
				if abort != nil {
					fin = make([]byte, headerLen, headerLen+len(abort))
					putHeader(fin, fAbort, t.rank, len(abort))
					fin = append(fin, abort...)
				} else {
					fin = make([]byte, headerLen)
					putHeader(fin, fGoodbye, t.rank, 0)
				}
				p.conn.SetWriteDeadline(time.Now().Add(drainTimeout)) //nolint:errcheck // best effort
				if nw, err := p.conn.Write(fin); err == nil {
					t.bytesSent.Add(int64(nw))
					t.framesSent.Add(1)
				}
				p.conn.Close()
				return
			}
			ok = write(b)
			t.frames.Put(b)
			if !ok {
				p.conn.Close()
				return
			}
		case <-hbC:
			if !write(hb[:]) {
				p.conn.Close()
				return
			}
		}
	}
}

// connLost maps a failed conn operation to the typed taxonomy: an
// expired deadline means a stalled peer (dist.ErrHaloTimeout, the
// liveness class); anything else mid-run is a dead peer
// (dist.ErrRankFailed). During or after teardown it is expected noise.
func (t *Transport) connLost(p *peerConn, op string, err error) {
	if t.closed.Load() || t.mb.Err() != nil || p.sawGoodbye.Load() {
		return
	}
	p.mu.Lock()
	closing := p.closing
	p.mu.Unlock()
	if closing {
		return
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.poison(fmt.Errorf("%w: net: %s to rank %d stalled past %v: %v",
			dist.ErrHaloTimeout, op, p.rank, t.cfg.WriteTimeout, err))
		return
	}
	t.poison(fmt.Errorf("%w: net: connection to rank %d lost mid-run (%s): %v",
		dist.ErrRankFailed, p.rank, op, err))
}

// prober is the liveness monitor: one goroutine watching every peer's
// lastRecv. Heartbeats guarantee frames flow on an idle healthy
// connection, so silence past the miss window means the peer (or the
// path) is dead — poisoned as dist.ErrHaloTimeout, the same typed class
// as the engine's halo deadline.
func (t *Transport) prober() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatEvery)
	defer tick.Stop()
	window := time.Duration(t.cfg.HeartbeatMiss) * t.cfg.HeartbeatEvery
	for {
		select {
		case <-t.stopProbe:
			return
		case <-tick.C:
		}
		if t.closed.Load() || t.mb.Err() != nil {
			return
		}
		now := time.Now()
		for _, p := range t.peers {
			if p == nil || p.sawGoodbye.Load() {
				continue
			}
			silent := now.Sub(time.Unix(0, p.lastRecv.Load()))
			if silent > t.cfg.HeartbeatEvery {
				t.hbMisses.Add(1)
			}
			if silent > window {
				t.poison(fmt.Errorf("%w: net: no frames from rank %d in %v (heartbeat window %v)",
					dist.ErrHaloTimeout, p.rank, silent.Round(time.Millisecond), window))
				return
			}
		}
	}
}

// peerGoodbye handles a GOODBYE frame: the peer exited after a clean
// run, so the mailbox closes its source (later receives from it fail
// with dist.ErrRankFailed). If receives were already posted against it,
// its "clean" exit is our rank failure — it finished (or tore down after
// a local failure) while we expected more data.
func (t *Transport) peerGoodbye(p *peerConn) {
	if pending := t.mb.Exit(p.rank); pending > 0 && !t.closed.Load() {
		t.poison(fmt.Errorf("%w: net: rank %d exited with %d receives pending against it",
			dist.ErrRankFailed, p.rank, pending))
	}
}
