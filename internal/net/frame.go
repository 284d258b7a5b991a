// Package net is the real rank transport: a dist.Transport over TCP,
// turning the engine's "rank = goroutine" model into "rank = process"
// (see dist/spmd.go for the engine half). Every ordered peer pair
// shares one TCP connection carrying length-prefixed typed frames on
// two logical channels — halo (worker traffic, still tagged with the
// engine's per-pair sequence numbers inside the payload) and ctl
// (driver-side collectives) — plus heartbeats and teardown control
// frames. Payloads are serialized from and into the engine's pooled
// message buffers (PoolBinder), and the wire frames themselves are
// pooled, so the zero-allocation steady state of the in-process
// transport survives the move onto the wire.
//
// Robustness is the point of the package, not an afterthought:
//
//   - bootstrap is a rendezvous on the configured listen-address list
//     (rank r dials every lower rank, accepts every higher one), with a
//     HELLO exchange validating protocol version, rank identity, world
//     size and partition metadata, a full barrier before the step loop,
//     and bounded dial retry with backoff — during bootstrap ONLY;
//   - per-connection heartbeats feed a liveness prober: a peer that
//     goes silent past the miss window poisons the transport with
//     dist.ErrHaloTimeout, the same typed path the engine's halo
//     deadline uses;
//   - a connection lost mid-run is a permanent typed failure
//     (dist.ErrRankFailed) — never a silent reconnect over torn halo
//     state;
//   - teardown distinguishes peer-exit-clean (GOODBYE frame, then EOF)
//     from peer-crash (EOF without GOODBYE) and failure propagation
//     (ABORT frame carrying the poisoning cause).
package net

import (
	"encoding/binary"
	"math"
)

// Wire frame: a fixed 9-byte header — type byte, sender rank (uint32
// LE), payload byte length (uint32 LE) — followed by the payload.
// float64 payloads (halo, ctl) are encoded little-endian, 8 bytes per
// value. TCP preserves order per connection, so frames need no wire
// sequence number: the engine's own per-pair tags (first float of every
// halo message) validate end-to-end ordering, and any framing damage
// (truncation, garbage) surfaces as a header/length violation →
// dist.ErrHaloCorrupt.
const (
	protoVersion = 1
	headerLen    = 9

	// maxFramePayload bounds a frame's payload: far above any halo or
	// flush shard the engine sends, low enough that a corrupt length
	// field cannot drive a multi-gigabyte allocation.
	maxFramePayload = 1 << 28
)

// Frame types.
const (
	fHello     = byte(1) // bootstrap handshake: version, world size, metadata
	fBarrier   = byte(2) // bootstrap barrier token
	fHalo      = byte(3) // engine halo message (float64 payload)
	fCtl       = byte(4) // driver collective message (float64 payload)
	fHeartbeat = byte(5) // liveness beacon, empty payload
	fGoodbye   = byte(6) // clean teardown: sender exited after a complete run
	fAbort     = byte(7) // failure propagation: payload is the poisoning cause
)

// putHeader writes a frame header into b (len >= headerLen).
func putHeader(b []byte, typ byte, src, payloadLen int) {
	b[0] = typ
	binary.LittleEndian.PutUint32(b[1:5], uint32(src))
	binary.LittleEndian.PutUint32(b[5:9], uint32(payloadLen))
}

// parseHeader splits a frame header.
func parseHeader(b []byte) (typ byte, src int, payloadLen int) {
	return b[0], int(binary.LittleEndian.Uint32(b[1:5])), int(binary.LittleEndian.Uint32(b[5:9]))
}

// encodeFloats appends payload little-endian into b (which must have
// the capacity — the caller sized it).
func encodeFloats(b []byte, payload []float64) []byte {
	for _, v := range payload {
		var u [8]byte
		binary.LittleEndian.PutUint64(u[:], math.Float64bits(v))
		b = append(b, u[:]...)
	}
	return b
}

// decodeFloats appends the float64s encoded in raw onto dst.
//
//op2:noalloc
func decodeFloats(dst []float64, raw []byte) []float64 {
	for off := 0; off+8 <= len(raw); off += 8 {
		//op2:allow dst is a pooled recv payload sized by the caller to len(raw)/8, so append never grows it
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(raw[off:off+8])))
	}
	return dst
}

// ring is a growable FIFO over a reusable backing array (the same
// shape dist uses for its pair queues): steady-state push/pop cycles
// recycle slots instead of re-appending into a slid slice.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, maxInt(4, 2*len(r.buf)))
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
