package net

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"op2hpx/internal/dist"
)

// Start bootstraps the transport: rendezvous with every peer (rank r
// dials every lower rank and accepts every higher one, so each ordered
// pair shares exactly one connection), HELLO handshake both ways, a
// full barrier, then the heartbeat writers and the liveness prober.
// Dial retry with backoff happens here and ONLY here — after Start
// returns, a lost connection is a permanent typed failure.
func (t *Transport) Start(ctx context.Context) error {
	if t.n == 1 {
		t.started.Store(true)
		if t.ln != nil {
			t.ln.Close()
		}
		return nil
	}
	if t.started.Load() {
		return fmt.Errorf("net: transport already started")
	}

	type accepted struct {
		p   *peerConn
		err error
	}
	nAccept := t.n - 1 - t.rank
	acceptCh := make(chan accepted, nAccept)
	if nAccept > 0 {
		go func() {
			for i := 0; i < nAccept; i++ {
				p, err := t.acceptPeer()
				acceptCh <- accepted{p, err}
				if err != nil {
					return
				}
			}
		}()
	}

	bootErr := func(err error) error {
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		if t.ln != nil {
			t.ln.Close()
		}
		return err
	}

	for s := 0; s < t.rank; s++ {
		p, err := t.dialPeer(ctx, s)
		if err != nil {
			return bootErr(err)
		}
		t.peers[s] = p
	}
	deadline := time.NewTimer(bootstrapWindow(t.cfg))
	defer deadline.Stop()
	for i := 0; i < nAccept; i++ {
		select {
		case a := <-acceptCh:
			if a.err != nil {
				return bootErr(fmt.Errorf("net: rank %d accept: %w", t.rank, a.err))
			}
			if t.peers[a.p.rank] != nil {
				a.p.conn.Close()
				return bootErr(fmt.Errorf("net: rank %d connected twice", a.p.rank))
			}
			t.peers[a.p.rank] = a.p
		case <-ctx.Done():
			return bootErr(fmt.Errorf("net: rank %d bootstrap canceled: %w", t.rank, ctx.Err()))
		case <-deadline.C:
			return bootErr(fmt.Errorf("net: rank %d bootstrap: %d higher rank(s) never connected", t.rank, nAccept-i))
		}
	}

	// Every pair is connected and verified. Arm the fault hook, start
	// the per-connection goroutines, and run the barrier so no rank
	// enters the step loop before every other rank is reachable.
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		if t.cfg.WrapConn != nil {
			p.conn = t.cfg.WrapConn(t.rank, p.rank, p.conn)
		}
		t.wg.Add(2)
		go t.writer(p)
		go t.reader(p)
	}
	t.started.Store(true)

	for _, p := range t.peers {
		if p == nil {
			continue
		}
		b := t.frames.Get(headerLen)
		b = b[:headerLen]
		putHeader(b, fBarrier, t.rank, 0)
		p.mu.Lock()
		select {
		case p.out <- b:
		default:
			p.mu.Unlock()
			return bootErr(fmt.Errorf("net: rank %d barrier send to rank %d: queue full", t.rank, p.rank))
		}
		p.mu.Unlock()
	}
	seen := make(map[int]bool, t.n-1)
	for len(seen) < t.n-1 {
		select {
		case r := <-t.barrierCh:
			seen[r] = true
		case <-ctx.Done():
			return bootErr(fmt.Errorf("net: rank %d barrier canceled: %w", t.rank, ctx.Err()))
		case <-deadline.C:
			return bootErr(fmt.Errorf("net: rank %d barrier: %d rank(s) missing", t.rank, t.n-1-len(seen)))
		case <-t.mb.Dead():
			// A connection failed before its peer's barrier token came
			// (a writer stalled on its first frame, a peer that died).
			return bootErr(fmt.Errorf("net: rank %d barrier: %w", t.rank, t.mb.Err()))
		}
	}

	// The rendezvous is complete: nobody else will dial us.
	if t.ln != nil {
		t.ln.Close()
	}
	if t.cfg.HeartbeatEvery > 0 {
		t.wg.Add(1)
		go t.prober()
	}
	return nil
}

// bootstrapWindow bounds the whole rendezvous: the worst-case dial
// budget one peer might legitimately take, plus slack.
func bootstrapWindow(cfg Config) time.Duration {
	w := time.Duration(cfg.DialRetries)*(cfg.DialTimeout/4) + 10*time.Second
	if w < 30*time.Second {
		w = 30 * time.Second
	}
	return w
}

// newPeer wraps an established, handshaken connection.
func (t *Transport) newPeer(rank int, c net.Conn) *peerConn {
	p := &peerConn{
		rank:       rank,
		conn:       c,
		out:        make(chan []byte, t.cfg.SendDepth),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	p.lastRecv.Store(time.Now().UnixNano())
	return p
}

// dialPeer connects to a lower rank with bounded retry and backoff.
// "Connection refused" during bootstrap is expected — peers start in
// any order — which is exactly why retry exists here and nowhere else.
func (t *Transport) dialPeer(ctx context.Context, s int) (*peerConn, error) {
	addr := t.cfg.Peers[s]
	backoff := t.cfg.DialBackoff
	started := time.Now()
	var lastErr error
	for attempt := 0; attempt < t.cfg.DialRetries; attempt++ {
		if attempt > 0 {
			t.reconnects.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, fmt.Errorf("net: rank %d dial rank %d canceled: %w", t.rank, s, ctx.Err())
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		d := net.Dialer{Timeout: t.cfg.DialTimeout}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		if err := t.sendHello(c); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		peer, err := t.readHello(c)
		if err != nil {
			c.Close()
			lastErr = err
			continue
		}
		if peer != s {
			c.Close()
			return nil, fmt.Errorf("net: dialed %s expecting rank %d, it claims rank %d", addr, s, peer)
		}
		if t.connectHist != nil {
			t.connectHist.Observe(time.Since(started).Seconds())
		}
		return t.newPeer(s, c), nil
	}
	return nil, fmt.Errorf("net: rank %d could not reach rank %d at %s after %d attempts: %w",
		t.rank, s, addr, t.cfg.DialRetries, lastErr)
}

// acceptPeer takes one inbound connection from a higher rank and
// completes the handshake (their HELLO first, then ours).
func (t *Transport) acceptPeer() (*peerConn, error) {
	started := time.Now()
	c, err := t.ln.Accept()
	if err != nil {
		return nil, err
	}
	peer, err := t.readHello(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	if peer <= t.rank || peer >= t.n {
		c.Close()
		return nil, fmt.Errorf("inbound connection claims rank %d (must be in (%d,%d))", peer, t.rank, t.n)
	}
	if err := t.sendHello(c); err != nil {
		c.Close()
		return nil, err
	}
	if t.connectHist != nil {
		t.connectHist.Observe(time.Since(started).Seconds())
	}
	return t.newPeer(peer, c), nil
}

// sendHello writes our identity frame: protocol version, world size and
// partition metadata, with our rank in the header.
func (t *Transport) sendHello(c net.Conn) error {
	meta := []byte(t.cfg.Meta)
	b := make([]byte, headerLen, headerLen+8+len(meta))
	putHeader(b, fHello, t.rank, 8+len(meta))
	b = append(b, byte(protoVersion), 0, 0, 0)
	b = append(b, byte(t.n), byte(t.n>>8), byte(t.n>>16), byte(t.n>>24))
	b = append(b, meta...)
	c.SetWriteDeadline(time.Now().Add(t.cfg.DialTimeout)) //nolint:errcheck // best effort
	_, err := c.Write(b)
	c.SetWriteDeadline(time.Time{}) //nolint:errcheck
	if err != nil {
		return fmt.Errorf("hello send: %w", err)
	}
	return nil
}

// readHello reads and validates the peer's identity frame, returning
// its rank. Any mismatch — version, world size, metadata — refuses the
// connection: two daemons from different job configurations must never
// exchange halo state.
func (t *Transport) readHello(c net.Conn) (int, error) {
	c.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout)) //nolint:errcheck // best effort
	defer c.SetReadDeadline(time.Time{})                 //nolint:errcheck
	var hdr [headerLen]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return 0, fmt.Errorf("hello read: %w", err)
	}
	typ, src, n := parseHeader(hdr[:])
	if typ != fHello {
		return 0, fmt.Errorf("hello read: got frame type %d, want HELLO", typ)
	}
	if n < 8 || n > 8+4096 {
		return 0, fmt.Errorf("hello read: implausible payload length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c, body); err != nil {
		return 0, fmt.Errorf("hello read: %w", err)
	}
	ver := int(body[0]) | int(body[1])<<8 | int(body[2])<<16 | int(body[3])<<24
	world := int(body[4]) | int(body[5])<<8 | int(body[6])<<16 | int(body[7])<<24
	meta := string(body[8:])
	if ver != protoVersion {
		return 0, fmt.Errorf("rank %d speaks protocol v%d, we speak v%d", src, ver, protoVersion)
	}
	if world != t.n {
		return 0, fmt.Errorf("rank %d is in a world of %d ranks, we are in %d", src, world, t.n)
	}
	if src < 0 || src >= t.n || src == t.rank {
		return 0, fmt.Errorf("peer claims invalid rank %d", src)
	}
	if meta != t.cfg.Meta {
		return 0, fmt.Errorf("rank %d partition metadata %q does not match ours (%q)", src, meta, t.cfg.Meta)
	}
	return src, nil
}

// reader is the per-connection read goroutine: it decodes frames,
// stamps liveness, and delivers payloads into the mailbox. Every exit
// path is classified — GOODBYE-then-EOF is a clean peer exit, EOF
// without GOODBYE is a crashed peer (dist.ErrRankFailed), a malformed
// frame is dist.ErrHaloCorrupt, an ABORT carries the peer's poisoning
// cause.
func (t *Transport) reader(p *peerConn) {
	defer t.wg.Done()
	defer close(p.readerDone)
	br := bufio.NewReaderSize(p.conn, 64<<10)
	var hdr [headerLen]byte
	var scratch []byte // reused payload byte buffer: zero-alloc steady state
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if p.sawGoodbye.Load() && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				return // clean: GOODBYE then hangup
			}
			if errors.Is(err, io.EOF) {
				t.connLost(p, "read (peer hung up without GOODBYE)", err)
			} else {
				t.connLost(p, "read", err)
			}
			return
		}
		t.bytesRecv.Add(headerLen)
		typ, src, n := parseHeader(hdr[:])
		if src != p.rank || n < 0 || n > maxFramePayload {
			t.poison(fmt.Errorf("%w: net: malformed frame header from rank %d (type %d, claimed src %d, len %d)",
				dist.ErrHaloCorrupt, p.rank, typ, src, n))
			return
		}
		if n > 0 {
			if cap(scratch) < n {
				scratch = make([]byte, n)
			}
			scratch = scratch[:n]
			if _, err := io.ReadFull(br, scratch); err != nil {
				// A frame announced n bytes and the stream ended short:
				// byte-level truncation, the corruption class.
				t.poison(fmt.Errorf("%w: net: frame from rank %d truncated mid-payload (%d bytes announced): %v",
					dist.ErrHaloCorrupt, p.rank, n, err))
				return
			}
			t.bytesRecv.Add(int64(n))
		}
		p.lastRecv.Store(time.Now().UnixNano())
		t.framesRecv.Add(1)

		switch typ {
		case fHeartbeat:
			// Liveness only; the lastRecv stamp above is the payload.
		case fHalo, fCtl:
			if n%8 != 0 {
				t.poison(fmt.Errorf("%w: net: frame from rank %d carries %d bytes, not a whole number of float64s",
					dist.ErrHaloCorrupt, p.rank, n))
				return
			}
			var msg []float64
			if h := t.pool.Load(); h != nil {
				msg = h.get(src, n/8)
			} else {
				msg = make([]float64, 0, n/8)
			}
			msg = decodeFloats(msg[:0], scratch)
			ch := chHalo
			if typ == fCtl {
				ch = chCtl
			}
			t.deliver(ch, src, msg)
		case fBarrier:
			select {
			case t.barrierCh <- src:
			default:
				t.poison(fmt.Errorf("%w: net: unexpected barrier frame from rank %d mid-run",
					dist.ErrHaloCorrupt, p.rank))
				return
			}
		case fGoodbye:
			p.sawGoodbye.Store(true)
			t.peerGoodbye(p)
			// Keep reading: the clean exit ends with the peer's hangup.
		case fAbort:
			p.sawGoodbye.Store(true) // the EOF that follows is expected
			t.poison(fmt.Errorf("%w: net: rank %d aborted: %s", dist.ErrRankFailed, p.rank, string(scratch)))
			return
		default:
			t.poison(fmt.Errorf("%w: net: unknown frame type %d from rank %d",
				dist.ErrHaloCorrupt, typ, p.rank))
			return
		}
	}
}
