// Package prefetch implements the paper's HPX data prefetcher (§V): a
// prefetching iterator fused with the chunked for_each algorithm, created
// with make_prefetcher_context over all the containers a loop accesses.
//
// The iterator partitions the iteration range into prefetch units of
// distance-factor cache lines. Before a unit executes, the unit that
// follows it is touched — one read per 64-byte cache line, in every
// registered container — pulling the next step's data of *all* containers
// into cache while the current step computes. Go has no portable prefetch
// instruction; an actual demand load has the same architectural effect the
// paper needs (the line becomes cache-resident), at slightly higher cost,
// which preserves the measured shape: little gain for tiny distances (per
// unit overhead dominates), a peak at moderate distances, and decay for
// very large distances (Fig. 20).
package prefetch

import (
	"fmt"
	"math"
	"sync/atomic"

	"op2hpx/internal/hpx"
)

// CacheLineBytes is the assumed cache line length; the paper sizes the
// prefetch distance in cache lines.
const CacheLineBytes = 64

// sink defeats dead-code elimination of the touch loads. One atomic add
// per TouchRange call keeps it cheap and race-detector clean.
var sink atomic.Uint64

// Sink publishes a value computed from prefetch loads so the compiler
// cannot eliminate them. Exported for custom Prefetchable implementations
// and the gather-prefetch paths in package core.
func Sink(v uint64) { sink.Add(v) }

// Prefetchable is a container whose cache lines can be touched ahead of
// use. Implementations exist for the slice types OP2 dats are built from;
// the prefetcher works with any mix of element types, one of the features
// §V calls out.
type Prefetchable interface {
	// TouchRange reads one element per cache line in [lo, hi).
	TouchRange(lo, hi int)
	// Len returns the number of elements.
	Len() int
}

// Float64s adapts a []float64 (8 elements per cache line).
type Float64s []float64

// TouchRange implements Prefetchable.
func (s Float64s) TouchRange(lo, hi int) {
	if hi > len(s) {
		hi = len(s)
	}
	var acc float64
	for i := lo; i < hi; i += CacheLineBytes / 8 {
		acc += s[i]
	}
	sink.Add(math.Float64bits(acc))
}

// Len implements Prefetchable.
func (s Float64s) Len() int { return len(s) }

// Float32s adapts a []float32 (16 elements per cache line).
type Float32s []float32

// TouchRange implements Prefetchable.
func (s Float32s) TouchRange(lo, hi int) {
	if hi > len(s) {
		hi = len(s)
	}
	var acc float32
	for i := lo; i < hi; i += CacheLineBytes / 4 {
		acc += s[i]
	}
	sink.Add(uint64(math.Float32bits(acc)))
}

// Len implements Prefetchable.
func (s Float32s) Len() int { return len(s) }

// Int32s adapts a []int32.
type Int32s []int32

// TouchRange implements Prefetchable.
func (s Int32s) TouchRange(lo, hi int) {
	if hi > len(s) {
		hi = len(s)
	}
	var acc int32
	for i := lo; i < hi; i += CacheLineBytes / 4 {
		acc += s[i]
	}
	sink.Add(uint64(uint32(acc)))
}

// Len implements Prefetchable.
func (s Int32s) Len() int { return len(s) }

// Int64s adapts a []int64.
type Int64s []int64

// TouchRange implements Prefetchable.
func (s Int64s) TouchRange(lo, hi int) {
	if hi > len(s) {
		hi = len(s)
	}
	var acc int64
	for i := lo; i < hi; i += CacheLineBytes / 8 {
		acc += s[i]
	}
	sink.Add(uint64(acc))
}

// Len implements Prefetchable.
func (s Int64s) Len() int { return len(s) }

// Bytes adapts a []byte.
type Bytes []byte

// TouchRange implements Prefetchable.
func (s Bytes) TouchRange(lo, hi int) {
	if hi > len(s) {
		hi = len(s)
	}
	var acc byte
	for i := lo; i < hi; i += CacheLineBytes {
		acc += s[i]
	}
	sink.Add(uint64(acc))
}

// Len implements Prefetchable.
func (s Bytes) Len() int { return len(s) }

// Context is the prefetcher context of Fig. 14: the loop range, the
// prefetch distance factor and references to all containers used in the
// loop. It is created with NewContext (= make_prefetcher_context) and
// consumed by ForEach via ctx.begin()/ctx.end() semantics.
type Context struct {
	first, last int
	distance    int
	containers  []Prefetchable

	// unitElems is the number of loop iterations per prefetch unit: the
	// distance factor converted from cache lines to elements of the
	// densest container (the one with most elements per index).
	unitElems int
}

// NewContext builds a prefetcher context for the loop over [first, last)
// with the given prefetch_distance_factor (in cache lines) over the listed
// containers. A distance factor below 1 disables prefetching (the context
// degrades to a plain chunked loop).
func NewContext(first, last, distanceFactor int, containers ...Prefetchable) (*Context, error) {
	if last < first {
		return nil, fmt.Errorf("prefetch: invalid range [%d, %d)", first, last)
	}
	for i, c := range containers {
		if c == nil {
			return nil, fmt.Errorf("prefetch: container %d is nil", i)
		}
		if c.Len() < last {
			return nil, fmt.Errorf("prefetch: container %d has %d elements, loop range ends at %d", i, c.Len(), last)
		}
	}
	ctx := &Context{first: first, last: last, distance: distanceFactor, containers: containers}
	// One float64 cache line holds 8 elements; one prefetch unit spans
	// distanceFactor lines.
	ctx.unitElems = distanceFactor * (CacheLineBytes / 8)
	return ctx, nil
}

// Distance reports the prefetch distance factor.
func (c *Context) Distance() int { return c.distance }

// Range reports the iteration range of the context.
func (c *Context) Range() (first, last int) { return c.first, c.last }

// UnitElems reports how many iterations one prefetch unit spans.
func (c *Context) UnitElems() int { return c.unitElems }

// Enabled reports whether the context actually prefetches.
func (c *Context) Enabled() bool { return c.distance >= 1 && len(c.containers) > 0 }

// touchUnit reads one element per cache line of [lo, hi) in every
// container.
func (c *Context) touchUnit(lo, hi int) {
	if lo >= hi {
		return
	}
	for _, p := range c.containers {
		p.TouchRange(lo, hi)
	}
}

// ForEach executes body(i) for every i in the context's range under the
// given policy, prefetching the data of the next prefetch unit of every
// container while the current unit executes — the hpx::parallel::for_each
// over ctx.begin()/ctx.end() of Fig. 14. The chunker still controls how
// many units form one scheduler task, so prefetching composes with
// persistent_auto_chunk_size exactly as §V describes ("this method is
// added to the method explained in section IV-A").
func ForEach(policy hpx.Policy, ctx *Context, body func(i int)) *hpx.Future[struct{}] {
	if !ctx.Enabled() {
		return hpx.ForEach(policy, ctx.first, ctx.last, body)
	}
	unit := ctx.unitElems
	n := ctx.last - ctx.first
	nunits := (n + unit - 1) / unit
	chunk := func(ulo, uhi int) {
		end := min(ctx.first+uhi*unit, ctx.last)
		for u := ulo; u < uhi; u++ {
			lo := ctx.first + u*unit
			hi := min(lo+unit, end)
			// Pull the next unit's lines in while this unit computes.
			// The touch stops at the chunk's end: the units past it
			// belong to another task, whose body may be writing them.
			ctx.touchUnit(hi, min(hi+unit, end))
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
	}
	return hpx.ForEachChunk(policy, 0, nunits, chunk)
}
