package part_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/core"
	"op2hpx/internal/part"
)

// referenceAdjacency is the brute-force adjacency AddAdjacencyMap must
// reproduce: the set of directed pairs (a, b), a != b, of co-targets of
// every source row of every map, plus the pairs already in base, laid
// out as CSR with every row ascending.
func referenceAdjacency(base *part.Topology, maps ...*core.Map) (ptr, idx []int32) {
	n := base.N
	seen := map[[2]int32]bool{}
	if base.HasAdjacency() {
		for e := 0; e < n; e++ {
			for _, nb := range base.Neighbors(e) {
				seen[[2]int32{int32(e), nb}] = true
			}
		}
	}
	for _, m := range maps {
		for e := 0; e < m.From().Size(); e++ {
			for i := 0; i < m.Dim(); i++ {
				for j := 0; j < m.Dim(); j++ {
					if a, b := int32(m.At(e, i)), int32(m.At(e, j)); a != b {
						seen[[2]int32{a, b}] = true
					}
				}
			}
		}
	}
	rows := make([][]int32, n)
	for p := range seen {
		rows[p[0]] = append(rows[p[0]], p[1])
	}
	ptr = make([]int32, n+1)
	for e, row := range rows {
		slices.Sort(row)
		idx = append(idx, row...)
		ptr[e+1] = int32(len(idx))
	}
	return ptr, idx
}

// randomMap declares a map of the given dim from a fresh set of rows
// elements into to, drawing targets from a narrow window so rows repeat
// a target (a == b) and pairs recur across rows.
func randomMap(t *testing.T, rng *rand.Rand, to *core.Set, rows, dim int) *core.Map {
	t.Helper()
	from, err := core.DeclSet(rows, "src")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int32, rows*dim)
	for e := 0; e < rows; e++ {
		base := rng.Intn(to.Size())
		for k := 0; k < dim; k++ {
			vals[e*dim+k] = int32((base + rng.Intn(4)) % to.Size())
		}
	}
	m, err := core.DeclMap(from, to, dim, vals, "adj")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAdjacencyMatchesReference checks AddAdjacencyMap against the
// brute-force pair set on seeded random maps of dims 1-4 with repeated
// targets and duplicate pairs, for one call and for two successive calls
// on one topology (the second must keep the first's edges).
func TestAdjacencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		to := core.MustDeclSet(n, "to")
		m1 := randomMap(t, rng, to, rng.Intn(3*n+1), 1+rng.Intn(4))
		m2 := randomMap(t, rng, to, rng.Intn(3*n+1), 1+rng.Intn(4))

		topo := part.NewTopology(n)
		wantPtr, wantIdx := referenceAdjacency(topo, m1)
		if err := topo.AddAdjacencyMap(m1); err != nil {
			t.Fatal(err)
		}
		checkCSR(t, trial, "first map", topo, wantPtr, wantIdx)

		wantPtr, wantIdx = referenceAdjacency(topo, m2)
		if err := topo.AddAdjacencyMap(m2); err != nil {
			t.Fatal(err)
		}
		checkCSR(t, trial, "second map", topo, wantPtr, wantIdx)
	}
}

func checkCSR(t *testing.T, trial int, what string, topo *part.Topology, ptr, idx []int32) {
	t.Helper()
	if !slices.Equal(topo.AdjPtr, ptr) {
		t.Fatalf("trial %d, %s: AdjPtr %v, want %v", trial, what, topo.AdjPtr, ptr)
	}
	if !slices.Equal(topo.AdjIdx, idx) {
		t.Fatalf("trial %d, %s: AdjIdx %v, want %v", trial, what, topo.AdjIdx, idx)
	}
	if len(topo.AdjIdx) != cap(topo.AdjIdx) || len(topo.AdjPtr) != cap(topo.AdjPtr) {
		t.Fatalf("trial %d, %s: CSR not exactly sized (len/cap ptr %d/%d, idx %d/%d)", trial, what,
			len(topo.AdjPtr), cap(topo.AdjPtr), len(topo.AdjIdx), cap(topo.AdjIdx))
	}
}

// shuffledAirfoilTopology builds the cells topology of an nx×ny airfoil
// mesh whose cells are renumbered by a seeded random permutation (the
// edge→cells targets and the cell→nodes rows move with them) and whose
// edge rows are shuffled, so neither the adjacency nor the centroids
// follow the generator's order.
func shuffledAirfoilTopology(t *testing.T, nx, ny int, seed int64) *part.Topology {
	t.Helper()
	m, err := airfoil.NewMesh(nx, ny, airfoil.DefaultConstants())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ncell := m.Cells.Size()
	newID := rng.Perm(ncell)
	pecell := m.Pecell.Data()
	for i, c := range pecell {
		pecell[i] = int32(newID[c])
	}
	rng.Shuffle(len(pecell)/2, func(i, j int) {
		pecell[2*i], pecell[2*j] = pecell[2*j], pecell[2*i]
		pecell[2*i+1], pecell[2*j+1] = pecell[2*j+1], pecell[2*i+1]
	})
	pcell := m.Pcell.Data()
	old := slices.Clone(pcell)
	for c := 0; c < ncell; c++ {
		copy(pcell[newID[c]*4:newID[c]*4+4], old[c*4:c*4+4])
	}
	topo := part.NewTopology(ncell)
	if err := topo.AddAdjacencyMap(m.Pecell); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetCentroidsVia(m.Pcell, m.X); err != nil {
		t.Fatal(err)
	}
	return topo
}

func digest(vs ...[]int32) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		binary.Write(h, binary.LittleEndian, int64(len(v))) //nolint:errcheck // hash writes cannot fail
		binary.Write(h, binary.LittleEndian, v)             //nolint:errcheck // hash writes cannot fail
	}
	return h.Sum64()
}

// TestPartitionsPinned pins every partitioner's owner vector (as an
// FNV-64 digest) and edge-cut on a shuffled 120×60 airfoil mesh, and the
// adjacency they are read from, so a rewrite of the topology builders or
// the partitioners that changes any partition fails here.
func TestPartitionsPinned(t *testing.T) {
	topo := shuffledAirfoilTopology(t, 120, 60, 40)
	if got, want := digest(topo.AdjPtr, topo.AdjIdx), uint64(0xe2c4d7733a2c30fa); got != want {
		t.Errorf("adjacency digest %#x, want %#x", got, want)
	}
	pins := []struct {
		p      part.Partitioner
		ranks  int
		digest uint64
		cut    int
	}{
		{part.Block{}, 2, 0x12d854e0ed4a3331, 7165},
		{part.RCB{}, 2, 0x6d9aff0af5e47651, 60},
		{part.GreedyGraph{}, 2, 0x608e692729dacf21, 126},
		{part.Block{}, 4, 0xa9e76e2bbc9fbc31, 10681},
		{part.RCB{}, 4, 0xf1593f4aafb7bf51, 180},
		{part.GreedyGraph{}, 4, 0x37078ca3d60557e1, 254},
	}
	for _, pin := range pins {
		owner, err := pin.p.Partition(pin.ranks, topo)
		if err != nil {
			t.Fatal(err)
		}
		got, cut := digest(owner), part.EdgeCut(owner, topo)
		if got != pin.digest || cut != pin.cut {
			t.Errorf("%s/ranks=%d: owner digest %#x edge-cut %d, want %#x and %d",
				pin.p.Name(), pin.ranks, got, cut, pin.digest, pin.cut)
		}
	}
}

// TestAdjacencyAllocsFlat guards the build's allocation count: it must
// not grow with the mesh (no per-pair or per-row allocation).
func TestAdjacencyAllocsFlat(t *testing.T) {
	allocs := func(nx, ny int) float64 {
		m, err := airfoil.NewMesh(nx, ny, airfoil.DefaultConstants())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			topo := part.NewTopology(m.Cells.Size())
			if err := topo.AddAdjacencyMap(m.Pecell); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(60, 30), allocs(240, 120)
	if small != large || large > 6 {
		t.Errorf("AddAdjacencyMap allocations: %v at 60x30, %v at 240x120; want equal and <= 6", small, large)
	}
}
