package dist

import (
	"sync"
	"sync/atomic"
)

// Pool is a free list of buffers: the engine's per-rank message buffers
// and a pooling transport's wire frames. Get hands out the smallest free
// buffer that fits, so small messages do not take the buffers reserved
// for large ones. Reserve grows the pool's population ahead of use: a
// step plan reserves its traffic's working set when it compiles, so its
// first step draws every buffer from the pool. The population only
// grows — by reservations and by misses — and every buffer returns to
// the free list, so a working set that fits the reservation never
// allocates. A buffer Get allocated before the reservation covering it
// (a peer process's message can arrive before this process compiled the
// plan) is adopted by that reservation: Misses counts only buffers
// beyond what the reservations account for, so the population stays
// within the plan-derived bound either way.
type Pool[E any] struct {
	mu     sync.Mutex
	free   [][]E
	caps   []int  // capacity of every buffer the pool created
	missed []bool // per created buffer: allocated by Get and not yet adopted

	misses atomic.Int64 // buffers Get allocated and no reservation adopted
	gets   atomic.Int64 // buffers handed out
}

// Get returns an empty buffer with capacity >= n.
func (p *Pool[E]) Get(n int) []E {
	p.gets.Add(1)
	p.mu.Lock()
	best := -1
	for i, b := range p.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(p.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := p.free[best]
		last := len(p.free) - 1
		p.free[best] = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		p.mu.Unlock()
		return b[:0]
	}
	p.caps = append(p.caps, n)
	p.missed = append(p.missed, true)
	p.misses.Add(1)
	p.mu.Unlock()
	return make([]E, 0, n)
}

// Put returns a buffer to the free list.
func (p *Pool[E]) Put(b []E) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, b[:0])
	p.mu.Unlock()
}

// Reserve grows the population to at least n buffers of capacity >=
// size, counting (and adopting, if Get allocated them) the buffers
// already created, whether free or in use.
func (p *Pool[E]) Reserve(n, size int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	have := 0
	for i, c := range p.caps {
		if c < size || have == n {
			continue
		}
		have++
		if p.missed[i] {
			p.missed[i] = false
			p.misses.Add(-1)
		}
	}
	for ; have < n; have++ {
		p.free = append(p.free, make([]E, 0, size))
		p.caps = append(p.caps, size)
		p.missed = append(p.missed, false)
	}
}

// PoolStats are a pool's counters: Misses counts buffers Get allocated
// beyond what the reservations account for (zero when the plans'
// reservations cover their traffic), Gets the buffers handed out.
type PoolStats struct {
	Misses, Gets int64
}

// Stats reads the pool's counters.
func (p *Pool[E]) Stats() PoolStats {
	return PoolStats{Misses: p.misses.Load(), Gets: p.gets.Load()}
}
