// Package part provides mesh partitioners for the distributed runtime:
// algorithms that assign every element of an OP2 set to one of R ranks.
// All partitioners implement one interface and report against the same
// quality metrics (edge-cut and imbalance), so tests and experiments can
// compare them on equal footing.
//
// Three partitioners are provided:
//
//   - Block: the trivial contiguous split (rank r owns [r·n/R, (r+1)·n/R)).
//     Needs no mesh information; the baseline every other partitioner is
//     measured against.
//   - RCB: recursive coordinate bisection over element geometry. Needs
//     element centroids (Topology.Coords); splits the element set along
//     the widest coordinate axis, recursing until R parts remain.
//   - GreedyGraph: greedy graph-growing k-way partitioning over the
//     element adjacency (Topology.Adjacency, typically derived from an
//     OP2 map such as edges→cells). Grows one part at a time from a
//     low-degree seed, always absorbing the frontier vertex with the
//     highest connectivity to the growing part.
//
// A Topology carries the optional mesh information the non-trivial
// partitioners need; build one from OP2 declarations with NewTopology,
// AddAdjacencyMap and SetCentroids/SetCentroidsVia.
package part

import (
	"fmt"
	"slices"

	"op2hpx/internal/core"
)

// Topology is the mesh information available to a partitioner: the number
// of elements, optional element centroids, and an optional symmetric
// element adjacency in CSR form. Either optional part may be absent;
// partitioners that need missing information return an error.
type Topology struct {
	N        int
	CoordDim int       // coordinates per element (0 when Coords is nil)
	Coords   []float64 // N*CoordDim centroids, element-major

	// Adjacency in CSR: the neighbours of element e are
	// AdjIdx[AdjPtr[e]:AdjPtr[e+1]]. Symmetric, no self-loops.
	AdjPtr []int32
	AdjIdx []int32
}

// NewTopology creates an empty topology for n elements.
func NewTopology(n int) *Topology { return &Topology{N: n} }

// HasCoords reports whether element centroids are available.
func (t *Topology) HasCoords() bool { return t != nil && len(t.Coords) > 0 }

// HasAdjacency reports whether an element adjacency is available.
func (t *Topology) HasAdjacency() bool { return t != nil && len(t.AdjPtr) == t.N+1 }

// Degree returns the number of neighbours of element e.
func (t *Topology) Degree(e int) int { return int(t.AdjPtr[e+1] - t.AdjPtr[e]) }

// Neighbors returns the CSR neighbour list of element e.
func (t *Topology) Neighbors(e int) []int32 { return t.AdjIdx[t.AdjPtr[e]:t.AdjPtr[e+1]] }

// AddAdjacencyMap folds an OP2 map into the adjacency: m must target the
// partitioned set, and every pair of targets of one source element (e.g.
// the two cells of an edge) becomes a graph edge. Call it for every map
// that carries increments across elements, then the adjacency mirrors the
// communication the partition will induce.
//
// The build is a linear-time counting pass over the map table: count
// both directions of every co-target pair (and the edges already
// present), fill the rows, then sort and deduplicate each row in place.
// The result is an exactly-sized CSR with ascending rows, the same for
// any order of the map's rows, and it allocates a fixed number of arrays
// whatever the mesh size.
func (t *Topology) AddAdjacencyMap(m *core.Map) error {
	if m == nil {
		return fmt.Errorf("part: nil adjacency map")
	}
	if m.To().Size() != t.N {
		return fmt.Errorf("part: adjacency map %q targets %d elements, topology has %d",
			m.Name(), m.To().Size(), t.N)
	}
	dim, data := m.Dim(), m.Data()
	old := t.HasAdjacency()
	// Pass 1: row lengths, duplicates included, in ptr[e+1].
	ptr := make([]int32, t.N+1)
	if old {
		for e := 0; e < t.N; e++ {
			ptr[e+1] = int32(t.Degree(e))
		}
	}
	for row := 0; row+dim <= len(data); row += dim {
		for i := row; i < row+dim; i++ {
			for j := i + 1; j < row+dim; j++ {
				if a, b := data[i], data[j]; a != b {
					ptr[a+1]++
					ptr[b+1]++
				}
			}
		}
	}
	for e := 0; e < t.N; e++ {
		ptr[e+1] += ptr[e]
	}
	// Pass 2: fill, advancing ptr[e] as row e's cursor; afterwards
	// ptr[e] holds row e's end, and shifting by one restores the starts.
	idx := make([]int32, ptr[t.N])
	if old {
		for e := 0; e < t.N; e++ {
			ptr[e] += int32(copy(idx[ptr[e]:], t.Neighbors(e)))
		}
	}
	for row := 0; row+dim <= len(data); row += dim {
		for i := row; i < row+dim; i++ {
			for j := i + 1; j < row+dim; j++ {
				if a, b := data[i], data[j]; a != b {
					idx[ptr[a]], idx[ptr[b]] = b, a
					ptr[a]++
					ptr[b]++
				}
			}
		}
	}
	copy(ptr[1:], ptr[:t.N])
	ptr[0] = 0
	// Sort each row and compact it, deduplicated, to the left.
	w, lo := int32(0), int32(0)
	for e := 0; e < t.N; e++ {
		hi := ptr[e+1]
		nb := idx[lo:hi]
		slices.Sort(nb)
		ptr[e] = w
		for k, v := range nb {
			if k == 0 || v != nb[k-1] {
				idx[w] = v
				w++
			}
		}
		lo = hi
	}
	ptr[t.N] = w
	if int(w) < len(idx) {
		idx = append(make([]int32, 0, w), idx[:w]...)
	}
	t.AdjPtr, t.AdjIdx = ptr, idx
	return nil
}

// SetCentroids installs per-element coordinates directly (coords is a dat
// on the partitioned set itself).
func (t *Topology) SetCentroids(coords *core.Dat) error {
	if coords == nil {
		return fmt.Errorf("part: nil coordinate dat")
	}
	if coords.Set().Size() != t.N {
		return fmt.Errorf("part: coordinate dat %q has %d elements, topology has %d",
			coords.Name(), coords.Set().Size(), t.N)
	}
	t.CoordDim = coords.Dim()
	t.Coords = append([]float64(nil), coords.Data()...)
	return nil
}

// SetCentroidsVia installs element centroids computed through a map: via
// maps each partitioned element to points (e.g. cells→nodes) and coords
// holds the point coordinates; the centroid is their mean.
func (t *Topology) SetCentroidsVia(via *core.Map, coords *core.Dat) error {
	if via == nil || coords == nil {
		return fmt.Errorf("part: centroid map and coordinate dat must be non-nil")
	}
	if via.From().Size() != t.N {
		return fmt.Errorf("part: centroid map %q maps %d elements, topology has %d",
			via.Name(), via.From().Size(), t.N)
	}
	if via.To() != coords.Set() {
		return fmt.Errorf("part: centroid map %q targets set %q but coordinates live on %q",
			via.Name(), via.To().Name(), coords.Set().Name())
	}
	dim := coords.Dim()
	data := coords.Data()
	vdim, rows := via.Dim(), via.Data()
	t.CoordDim = dim
	t.Coords = make([]float64, t.N*dim)
	inv := 1.0 / float64(vdim)
	for e := 0; e < t.N; e++ {
		c := t.Coords[e*dim : (e+1)*dim]
		for _, p := range rows[e*vdim : (e+1)*vdim] {
			x := data[int(p)*dim:][:dim]
			for d := range c {
				c[d] += x[d]
			}
		}
		for d := range c {
			c[d] *= inv
		}
	}
	return nil
}

// Partitioner assigns each of a topology's elements to one of ranks
// parts. Implementations must be deterministic: the same inputs always
// produce the same assignment.
type Partitioner interface {
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
	// Partition returns owner[e] ∈ [0, ranks) for every element. Parts
	// may be empty (e.g. more ranks than elements).
	Partition(ranks int, t *Topology) ([]int32, error)
}

// checkArgs validates the common preconditions of all partitioners.
func checkArgs(ranks int, t *Topology) error {
	if t == nil || t.N < 0 {
		return fmt.Errorf("part: partition needs a topology")
	}
	if ranks < 1 {
		return fmt.Errorf("part: partition needs >= 1 rank, got %d", ranks)
	}
	return nil
}

// Block is the contiguous block split: rank r owns the index range
// [r·n/R, (r+1)·n/R). It uses no mesh information.
type Block struct{}

// Name implements Partitioner.
func (Block) Name() string { return "block" }

// Partition implements Partitioner.
func (Block) Partition(ranks int, t *Topology) ([]int32, error) {
	if err := checkArgs(ranks, t); err != nil {
		return nil, err
	}
	owner := make([]int32, t.N)
	for r := 0; r < ranks; r++ {
		lo, hi := r*t.N/ranks, (r+1)*t.N/ranks
		for e := lo; e < hi; e++ {
			owner[e] = int32(r)
		}
	}
	return owner, nil
}

// EdgeCut counts the adjacency edges whose endpoints land on different
// ranks — the communication volume proxy every mesh partitioner
// minimizes. Each undirected edge is counted once. It returns 0 when the
// topology has no adjacency.
func EdgeCut(owner []int32, t *Topology) int {
	if !t.HasAdjacency() {
		return 0
	}
	cut := 0
	for e := 0; e < t.N; e++ {
		for _, nb := range t.Neighbors(e) {
			if int32(e) < nb && owner[e] != owner[nb] {
				cut++
			}
		}
	}
	return cut
}

// Imbalance reports max part size divided by the ideal n/ranks (1.0 is a
// perfect balance). An empty set reports 1.
func Imbalance(owner []int32, ranks int) float64 {
	if len(owner) == 0 || ranks < 1 {
		return 1
	}
	counts := make([]int, ranks)
	for _, r := range owner {
		counts[r]++
	}
	maxc := 0
	for _, c := range counts {
		if c > maxc {
			maxc = c
		}
	}
	return float64(maxc) * float64(ranks) / float64(len(owner))
}

// Sizes returns the number of elements owned by each rank.
func Sizes(owner []int32, ranks int) []int {
	counts := make([]int, ranks)
	for _, r := range owner {
		counts[r]++
	}
	return counts
}
