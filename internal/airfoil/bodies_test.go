package airfoil

import (
	"math"
	"math/rand"
	"testing"

	"op2hpx/internal/core"
	"op2hpx/op2"
)

// shuffleRows permutes the elements of every plan block of set (blocks
// of blockSize consecutive elements) by a seeded random order, moving
// the rows of the given maps from set and dats on set along. Block
// membership, and with it the plan's colouring, is unchanged; only the
// order of elements inside a block and the index patterns they touch
// move.
func shuffleRows(rng *rand.Rand, set *core.Set, blockSize int, maps []*core.Map, dats []*core.Dat) {
	n := set.Size()
	perm := make([]int, n)
	for e := range perm {
		perm[e] = e
	}
	for lo := 0; lo < n; lo += blockSize {
		blk := perm[lo:min(lo+blockSize, n)]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	for _, m := range maps {
		dim, data := m.Dim(), m.Data()
		old := append([]int32(nil), data...)
		for e, src := range perm {
			copy(data[e*dim:(e+1)*dim], old[src*dim:(src+1)*dim])
		}
	}
	for _, d := range dats {
		dim, data := d.Dim(), d.Data()
		old := append([]float64(nil), data...)
		for e, src := range perm {
			copy(data[e*dim:(e+1)*dim], old[src*dim:(src+1)*dim])
		}
	}
}

// TestSpecializedBodiesMatchKernels pins the inline range bodies of
// app.go to the reference kernels of kernels.go bit for bit: the same
// shuffled mesh runs on the specialized path and on the generic Kernel
// path, and every dat the step writes plus the rms reduction must agree
// exactly.
func TestSpecializedBodiesMatchKernels(t *testing.T) {
	const nx, ny, iters, seed = 40, 20, 12, 7
	consts := DefaultConstants()
	newMesh := func() *Mesh {
		t.Helper()
		m, err := NewMesh(nx, ny, consts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		shuffleRows(rng, m.Edges, core.DefaultBlockSize, []*core.Map{m.Pedge, m.Pecell}, nil)
		shuffleRows(rng, m.Bedges, core.DefaultBlockSize, []*core.Map{m.Pbedge, m.Pbecell}, []*core.Dat{m.Bound})
		return m
	}

	// Both bres_calc branches must run.
	walls := 0
	m0 := newMesh()
	if m0.Edges.Size() <= core.DefaultBlockSize {
		t.Fatalf("%d edges fill one plan block; the shuffle needs several", m0.Edges.Size())
	}
	for _, b := range m0.Bound.Data() {
		if b == BoundWall {
			walls++
		}
	}
	if walls == 0 || walls == m0.Bedges.Size() {
		t.Fatalf("%d of %d boundary edges are walls; both bres_calc branches must run", walls, m0.Bedges.Size())
	}

	type result struct{ q, qold, adt, res, rms []float64 }
	run := func(b op2.Backend, workers int, generic bool) result {
		t.Helper()
		m := newMesh()
		rt := testRuntime(t, b, workers, op2.WithChunker(op2.StaticChunk(m.Edges.Size())))
		app, err := NewAppFromMesh(m, consts, rt)
		if err != nil {
			t.Fatal(err)
		}
		app.UseGenericKernels = generic
		if _, err := app.Run(iters); err != nil {
			t.Fatal(err)
		}
		return result{m.Q.Data(), m.Qold.Data(), m.Adt.Data(), m.Res.Data(), app.Rms.Data()}
	}
	same := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: len %d vs %d", what, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %.17g, kernels give %.17g (not bitwise)", what, i, got[i], want[i])
			}
		}
	}

	for _, tc := range []struct {
		name    string
		backend op2.Backend
		workers int
	}{
		{"serial", op2.Serial, 1},
		{"dataflow-2", op2.Dataflow, 2},
		{"dataflow-4", op2.Dataflow, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(tc.backend, tc.workers, true)
			got := run(tc.backend, tc.workers, false)
			same(t, "q", got.q, want.q)
			same(t, "qold", got.qold, want.qold)
			same(t, "adt", got.adt, want.adt)
			same(t, "res", got.res, want.res)
			same(t, "rms", got.rms, want.rms)
		})
	}
}
