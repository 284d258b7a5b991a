package core

import (
	"fmt"
	"math/bits"
	"sync"
)

// Plan is an OP2 execution plan for a loop with indirectly incremented
// data: the iteration set is partitioned into contiguous blocks
// (blockIdx/offset_b/nelem in Fig. 4 of the paper), and blocks are greedy-
// colored so that no two blocks of the same color increment the same
// target element. Execution proceeds color by color; blocks within a color
// run in parallel with no locking.
type Plan struct {
	set       *Set
	blockSize int
	nblocks   int
	offset    []int // offset[b] = first element of block b
	nelem     []int // nelem[b] = number of elements in block b
	color     []int // color[b]
	ncolors   int
	byColor   [][]int // byColor[c] = block ids of color c

	orderOnce sync.Once
	order     []int // cached ElementOrder
}

// NBlocks reports the number of blocks.
func (p *Plan) NBlocks() int { return p.nblocks }

// NColors reports the number of block colors.
func (p *Plan) NColors() int { return p.ncolors }

// BlockSize reports the nominal block size.
func (p *Plan) BlockSize() int { return p.blockSize }

// Block returns the element range [lo, hi) of block b.
func (p *Plan) Block(b int) (lo, hi int) { return p.offset[b], p.offset[b] + p.nelem[b] }

// Color returns the color of block b.
func (p *Plan) Color(b int) int { return p.color[b] }

// BlocksOfColor returns the block ids of color c.
func (p *Plan) BlocksOfColor(c int) []int { return p.byColor[c] }

// ElementOrder returns the serial execution order of the plan's elements:
// ascending colors, ascending blocks within a color, ascending elements
// within a block. This is the element order every shared-memory backend
// applies indirect increments in, and therefore the order a distributed
// backend must replay to stay bitwise-identical.
//
// The order is materialized once and cached on the (immutable) plan, so
// the returned slice is shared: callers must not modify it.
func (p *Plan) ElementOrder() []int {
	p.orderOnce.Do(func() {
		order := make([]int, 0, p.set.size)
		for c := 0; c < p.ncolors; c++ {
			for _, b := range p.byColor[c] {
				lo, hi := p.Block(b)
				for e := lo; e < hi; e++ {
					order = append(order, e)
				}
			}
		}
		p.order = order
	})
	return p.order
}

// LoopPlan builds (uncached) the execution plan the backends use for l at
// the given block size: the iteration set blocked and colored against the
// loop's indirect modifying maps. Loops without indirect modifications
// get a single-color plan whose element order is simply ascending.
func LoopPlan(l *Loop, blockSize int) (*Plan, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return buildPlan(l.Set, blockSize, conflictMaps(l.Args))
}

// planKey identifies a cached plan: the iteration set, the block size and
// the identity of every (map, index-set irrelevant) conflict source.
type planKey struct {
	set       *Set
	blockSize int
	maps      [4]*Map // up to 4 distinct conflict maps inline
	nmaps     int
}

// conflictSource describes one indirectly-incremented access: every map
// entry of element e is a resource the block containing e claims.
type conflictSource struct {
	m *Map
}

// colorMask is a growable bitmask over block colors. Word 0 is kept inline
// since almost every mesh needs well under 64 colors.
type colorMask struct {
	w0   uint64
	rest []uint64
}

func (m *colorMask) clear() {
	m.w0 = 0
	for i := range m.rest {
		m.rest[i] = 0
	}
}

func (m *colorMask) set(c int) {
	if c < 64 {
		m.w0 |= 1 << uint(c)
		return
	}
	w := c/64 - 1
	for len(m.rest) <= w {
		m.rest = append(m.rest, 0)
	}
	m.rest[w] |= 1 << uint(c%64)
}

func (m *colorMask) or(o colorMask) {
	m.w0 |= o.w0
	for len(m.rest) < len(o.rest) {
		m.rest = append(m.rest, 0)
	}
	for i, w := range o.rest {
		m.rest[i] |= w
	}
}

func (m *colorMask) firstClear() int {
	if m.w0 != ^uint64(0) {
		return firstZeroBit(m.w0)
	}
	for i, w := range m.rest {
		if w != ^uint64(0) {
			return 64*(i+1) + firstZeroBit(w)
		}
	}
	return 64 * (len(m.rest) + 1)
}

// firstZeroBit locates the lowest clear bit in one instruction: the
// lowest zero of w is the lowest set bit of its complement.
func firstZeroBit(w uint64) int {
	return bits.TrailingZeros64(^w)
}

// buildPlan partitions set into blocks of blockSize and colors them so no
// two same-colored blocks share any target element reachable through any
// conflict map. Coloring is greedy with per-target color bitmasks, the
// same strategy OP2's plan construction uses.
func buildPlan(set *Set, blockSize int, conflicts []conflictSource) (*Plan, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("op2: block size %d < 1", blockSize)
	}
	n := set.size
	nblocks := (n + blockSize - 1) / blockSize
	p := &Plan{
		set:       set,
		blockSize: blockSize,
		nblocks:   nblocks,
		offset:    make([]int, nblocks),
		nelem:     make([]int, nblocks),
		color:     make([]int, nblocks),
	}
	for b := 0; b < nblocks; b++ {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		p.offset[b] = lo
		p.nelem[b] = hi - lo
	}
	if len(conflicts) == 0 {
		// Direct loop: one color, all blocks independent.
		p.ncolors = 1
		p.byColor = [][]int{make([]int, nblocks)}
		for b := range p.color {
			p.color[b] = 0
			p.byColor[0][b] = b
		}
		return p, nil
	}

	// masks[t] is the set of colors already claimed by blocks that
	// increment target element t, one multi-word bitmask per element of
	// each conflict map's target set, so the number of colors is
	// unbounded (pathologically connected meshes degrade to serialized
	// colors instead of failing). Distinct maps sharing a target set
	// share masks, because increments to the same dat element conflict
	// regardless of which map found them.
	type targetSpace struct {
		to    *Set
		masks []colorMask
		maps  []*Map
	}
	var spaces []*targetSpace
	spaceFor := func(to *Set) *targetSpace {
		for _, s := range spaces {
			if s.to == to {
				return s
			}
		}
		s := &targetSpace{to: to, masks: make([]colorMask, to.size)}
		spaces = append(spaces, s)
		return s
	}
	for _, c := range conflicts {
		s := spaceFor(c.m.to)
		s.maps = append(s.maps, c.m)
	}

	maxColor := 0
	var used colorMask
	for b := 0; b < nblocks; b++ {
		lo, hi := p.Block(b)
		used.clear()
		for _, s := range spaces {
			for _, m := range s.maps {
				md := m.data
				dim := m.dim
				for e := lo; e < hi; e++ {
					base := e * dim
					for k := 0; k < dim; k++ {
						used.or(s.masks[md[base+k]])
					}
				}
			}
		}
		c := used.firstClear()
		p.color[b] = c
		if c+1 > maxColor {
			maxColor = c + 1
		}
		for _, s := range spaces {
			for _, m := range s.maps {
				md := m.data
				dim := m.dim
				for e := lo; e < hi; e++ {
					base := e * dim
					for k := 0; k < dim; k++ {
						s.masks[md[base+k]].set(c)
					}
				}
			}
		}
	}
	p.ncolors = maxColor
	p.byColor = make([][]int, maxColor)
	for b := 0; b < nblocks; b++ {
		c := p.color[b]
		p.byColor[c] = append(p.byColor[c], b)
	}
	return p, nil
}

// planCache memoizes plans per (set, blockSize, conflict maps); plans are
// immutable once built, so loops executed every time step reuse them, just
// as OP2 caches op_plans.
type planCache struct {
	mu    sync.Mutex
	plans map[planKey]*Plan
}

func (pc *planCache) get(set *Set, blockSize int, conflicts []conflictSource) (*Plan, error) {
	key := planKey{set: set, blockSize: blockSize}
	if len(conflicts) > len(key.maps) {
		// More distinct conflict maps than the inline key holds: build
		// uncached (does not occur for any loop in this repository).
		return buildPlan(set, blockSize, conflicts)
	}
	for i, c := range conflicts {
		key.maps[i] = c.m
	}
	key.nmaps = len(conflicts)

	pc.mu.Lock()
	if pc.plans == nil {
		pc.plans = make(map[planKey]*Plan)
	}
	if p, ok := pc.plans[key]; ok {
		pc.mu.Unlock()
		return p, nil
	}
	pc.mu.Unlock()

	p, err := buildPlan(set, blockSize, conflicts)
	if err != nil {
		return nil, err
	}
	pc.mu.Lock()
	if prev, ok := pc.plans[key]; ok {
		p = prev
	} else {
		pc.plans[key] = p
	}
	pc.mu.Unlock()
	return p, nil
}
