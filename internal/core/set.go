// Package core implements the OP2 abstraction redesigned by the paper:
// sets, mappings between sets, data on sets (dats), and parallel loops over
// sets with access descriptors — plus the three loop execution backends the
// evaluation compares: serial, fork-join ("#pragma omp parallel for" with
// its implicit end-of-loop barrier, Fig. 4) and the HPX dataflow backend
// (§IV) in which every loop consumes and produces futures so dependent
// loops interleave without global barriers. Both parallel backends run
// their chunks on the same scheduler pool; they differ in issue policy.
package core

import "fmt"

// Set is an OP2 set: nodes, edges, faces, cells... (op_decl_set). Loops
// iterate over sets; dats live on sets; maps connect sets.
type Set struct {
	name string
	size int
}

// DeclSet declares a set of the given size, mirroring op_decl_set.
func DeclSet(size int, name string) (*Set, error) {
	if size < 0 {
		return nil, fmt.Errorf("op2: set %q has negative size %d", name, size)
	}
	if name == "" {
		return nil, fmt.Errorf("op2: set must have a name")
	}
	return &Set{name: name, size: size}, nil
}

// MustDeclSet is DeclSet for static declarations that cannot fail.
func MustDeclSet(size int, name string) *Set {
	s, err := DeclSet(size, name)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the set's name.
func (s *Set) Name() string { return s.name }

// Size returns the number of elements in the set.
func (s *Set) Size() int { return s.size }

func (s *Set) String() string { return fmt.Sprintf("set(%s, %d)", s.name, s.size) }

// Map is an OP2 mapping (op_decl_map): for every element of the from set it
// stores dim indices into the to set, expressing mesh connectivity such as
// "each edge is mapped to two nodes".
type Map struct {
	name string
	from *Set
	to   *Set
	dim  int
	data []int32
}

// DeclMap declares a mapping from each element of from to dim elements of
// to. values is laid out row-major: values[e*dim+k] is the k-th target of
// element e. Every index is validated against the target set.
func DeclMap(from, to *Set, dim int, values []int32, name string) (*Map, error) {
	if from == nil || to == nil {
		return nil, fmt.Errorf("op2: map %q needs non-nil from and to sets", name)
	}
	if dim < 1 {
		return nil, fmt.Errorf("op2: map %q has non-positive dimension %d", name, dim)
	}
	if len(values) != from.size*dim {
		return nil, fmt.Errorf("op2: map %q expects %d indices (|%s|·%d), got %d",
			name, from.size*dim, from.name, dim, len(values))
	}
	for i, v := range values {
		if v < 0 || int(v) >= to.size {
			return nil, fmt.Errorf("op2: map %q entry %d is %d, outside target set %q of size %d",
				name, i, v, to.name, to.size)
		}
	}
	return &Map{name: name, from: from, to: to, dim: dim, data: values}, nil
}

// MustDeclMap is DeclMap for static declarations that cannot fail.
func MustDeclMap(from, to *Set, dim int, values []int32, name string) *Map {
	m, err := DeclMap(from, to, dim, values, name)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the map's name.
func (m *Map) Name() string { return m.name }

// From returns the source set.
func (m *Map) From() *Set { return m.from }

// To returns the target set.
func (m *Map) To() *Set { return m.to }

// Dim returns the arity of the mapping.
func (m *Map) Dim() int { return m.dim }

// At returns the idx-th target of element e.
func (m *Map) At(e, idx int) int { return int(m.data[e*m.dim+idx]) }

// Data exposes the raw index table (for prefetcher registration and
// generated kernels). Callers must not mutate it.
func (m *Map) Data() []int32 { return m.data }

func (m *Map) String() string {
	return fmt.Sprintf("map(%s: %s->%s, dim %d)", m.name, m.from.name, m.to.name, m.dim)
}
