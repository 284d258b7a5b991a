package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Kernel is a user kernel in the generic OP2 style: views[k] is the slice
// view of argument k for the current set element (dim values for dat args,
// the reduction scratch for global args). It is called once per element,
// like save_soln(...) inside the generated loop of Fig. 4.
type Kernel func(views [][]float64)

// RangeBody is a specialized loop body covering the element range
// [lo, hi) — the shape the OP2 translator generates per kernel so the
// inner loop indexes raw slices directly instead of building per-element
// views. scratch is the loop's reduction buffer (laid out by scratchLayout;
// empty when the loop has no global reductions). A RangeBody must touch
// data exactly as the loop's Args declare.
type RangeBody func(lo, hi int, scratch []float64)

// Bind resolves a loop's dats and maps to the arrays one execution
// context indexes. Under shared memory these are the declarations' own
// arrays; on a distributed rank they are rank-local: a dat's owned and
// halo values in one contiguous array, and a map's rows rewritten to
// rank-local indices, so element e of the range and the indices a map
// yields address the same arrays the way the global ones do.
type Bind interface {
	Dat(d *Dat) []float64
	Map(m *Map) []int32
}

// Binder builds a loop's RangeBody over the arrays a Bind resolves. It
// is called once per execution context — once per compiled loop under
// shared memory, once per (loop, rank) on a distributed runtime — so it
// should resolve every array it needs up front and capture the slices.
type Binder func(b Bind) RangeBody

// Loop describes one op_par_loop: a name, the iteration set, the argument
// list with access descriptors, and the kernel. At least one of Kernel or
// Body must be set; Body takes precedence.
type Loop struct {
	Name   string
	Set    *Set
	Args   []Arg
	Kernel Kernel
	Body   Binder

	// compiled caches the loop's steady-state execution artifact, built
	// by the first executor that runs the loop (see CompiledLoop). The
	// kernel is read per invocation, so re-attaching it needs no
	// invalidation; the Body is bound at compile time, so re-attaching
	// it, or changing Set or Args after the first execution, does (call
	// InvalidateCompiled).
	compiled atomic.Pointer[CompiledLoop]
	gen      atomic.Uint64
}

// InvalidateCompiled drops the loop's cached compiled artifact so the
// next execution recompiles (and rebinds) it, and bumps the loop's
// generation so bodies bound elsewhere are rebound too.
func (l *Loop) InvalidateCompiled() {
	l.compiled.Store(nil)
	l.gen.Add(1)
}

// Generation counts InvalidateCompiled calls: a cache of bodies bound
// from this loop is current while the generation it recorded still
// matches.
func (l *Loop) Generation() uint64 { return l.gen.Load() }

// Binder returns the loop's body binder: the attached Body, or the
// generic view-building binder over Kernel.
func (l *Loop) Binder() Binder {
	if l.Body != nil {
		return l.Body
	}
	return l.kernelBinder
}

// kernelBinder is the generic-kernel Binder: the bound body builds one
// slice view per argument and element and calls the kernel, read from
// the Loop per range so a re-attached kernel is observed. Views come
// from a pool local to the bound body, because shared-memory chunks of
// one body run concurrently.
func (l *Loop) kernelBinder(b Bind) RangeBody {
	type argView struct {
		data []float64
		m    []int32 // nil for direct args and globals
		mdim int
		idx  int
		dim  int
		gbl  bool
		off  int // reduction scratch offset; -1 for everything else
	}
	sl := layoutScratch(l.Args)
	av := make([]argView, len(l.Args))
	for i, a := range l.Args {
		v := argView{off: sl.offs[i], gbl: a.IsGlobal()}
		if v.gbl {
			v.data, v.dim = a.gbl.data, a.gbl.Dim()
		} else {
			v.data, v.dim = b.Dat(a.dat), a.dat.dim
			if a.m != nil {
				v.m, v.mdim, v.idx = b.Map(a.m), a.m.dim, a.idx
			}
		}
		av[i] = v
	}
	pool := &sync.Pool{New: func() any {
		views := make([][]float64, len(av))
		return &views
	}}
	return func(lo, hi int, scratch []float64) {
		kernel := l.Kernel
		vp := pool.Get().(*[][]float64)
		views := *vp
		// Global views are invariant over the range.
		for i := range av {
			if v := &av[i]; v.gbl {
				if v.off >= 0 {
					views[i] = scratch[v.off : v.off+v.dim]
				} else {
					views[i] = v.data
				}
			}
		}
		for e := lo; e < hi; e++ {
			for i := range av {
				v := &av[i]
				if v.gbl {
					continue
				}
				j := e
				if v.m != nil {
					j = int(v.m[e*v.mdim+v.idx])
				}
				views[i] = v.data[j*v.dim : (j+1)*v.dim : (j+1)*v.dim]
			}
			kernel(views)
		}
		pool.Put(vp)
	}
}

// Validate checks the loop's arguments against its iteration set.
func (l *Loop) Validate() error {
	if l.Set == nil {
		return fmt.Errorf("op2: loop %q has no iteration set", l.Name)
	}
	if l.Kernel == nil && l.Body == nil {
		return fmt.Errorf("op2: loop %q has neither Kernel nor Body", l.Name)
	}
	for i, a := range l.Args {
		if err := a.validate(l.Set, i); err != nil {
			return fmt.Errorf("op2: loop %q: %w", l.Name, err)
		}
	}
	return nil
}

// ReduceInit returns the identity element of a reduction access: 0 for
// Inc, +Inf for Min, -Inf for Max. Shared by every backend (including
// the distributed engine) so they cannot drift.
func ReduceInit(a Access) float64 {
	switch a {
	case Min:
		return math.Inf(1)
	case Max:
		return math.Inf(-1)
	default:
		return 0
	}
}

// ReduceCombine folds src into dst under the reduction access — the one
// definition of how partial reductions merge, shared by every backend.
func ReduceCombine(a Access, dst, src []float64) {
	switch a {
	case Inc:
		for k := range src {
			dst[k] += src[k]
		}
	case Min:
		for k := range src {
			if src[k] < dst[k] {
				dst[k] = src[k]
			}
		}
	case Max:
		for k := range src {
			if src[k] > dst[k] {
				dst[k] = src[k]
			}
		}
	}
}

// scratchLayout computes where each reducing global argument lives inside
// a plan block's reduction slot.
type scratchLayout struct {
	size   int
	stride int   // size rounded up to whole cache lines: one slot's span
	offs   []int // per arg; -1 for non-reducing args
	initv  []float64
}

func layoutScratch(args []Arg) scratchLayout {
	sl := scratchLayout{offs: make([]int, len(args))}
	for i, a := range args {
		sl.offs[i] = -1
		if !a.IsGlobal() || a.acc == Read {
			continue
		}
		sl.offs[i] = sl.size
		dim := a.gbl.Dim()
		for k := 0; k < dim; k++ {
			sl.initv = append(sl.initv, ReduceInit(a.acc))
		}
		sl.size += dim
	}
	sl.stride = (sl.size + cacheLineFloats - 1) / cacheLineFloats * cacheLineFloats
	return sl
}

// combine folds one scratch buffer into an accumulator of the same layout.
func (sl *scratchLayout) combine(acc, s []float64, args []Arg) {
	for i, a := range args {
		off := sl.offs[i]
		if off < 0 {
			continue
		}
		dim := a.gbl.Dim()
		ReduceCombine(a.acc, acc[off:off+dim], s[off:off+dim])
	}
}

// apply folds the final accumulator into the global variables themselves.
func (sl *scratchLayout) apply(acc []float64, args []Arg) {
	for i, a := range args {
		off := sl.offs[i]
		if off < 0 {
			continue
		}
		g := a.gbl
		dim := g.Dim()
		ReduceCombine(a.acc, g.data[:dim], acc[off:off+dim])
	}
}

// conflictMaps returns one conflictSource per distinct map used by an
// indirect modifying access: these are the accesses that make unsynchron-
// ized parallel execution racy and therefore require plan coloring.
func conflictMaps(args []Arg) []conflictSource {
	var out []conflictSource
	seen := map[*Map]bool{}
	for _, a := range args {
		if a.IsGlobal() || a.m == nil || a.acc == Read {
			continue
		}
		if !seen[a.m] {
			seen[a.m] = true
			out = append(out, conflictSource{m: a.m})
		}
	}
	return out
}
