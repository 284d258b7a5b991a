package airfoil

import (
	"op2hpx/op2"
)

// DistApp is the airfoil application on the distributed runtime: the
// same App wiring (the five op_par_loop declarations and their bodies
// are untouched) executed through op2.WithRanks — cells partitioned
// across localities, the flow dats held per rank as owned values plus
// an import halo exchanged through pecell, and the read-only mesh
// geometry replicated. Each rank runs the bodies over its local arrays;
// because increments land in place in the serial plan order and
// reductions fold in it too, the results are bitwise-identical to the
// shared-memory backends at every rank count and under every
// partitioner.
type DistApp struct {
	*App
	ranks int
}

// NewDistApp partitions the mesh over `ranks` localities with the
// default block partitioner.
func NewDistApp(nx, ny, ranks int) (*DistApp, error) {
	return NewDistAppPartitioned(nx, ny, ranks, nil)
}

// NewDistAppPartitioned is NewDistApp with an explicit partitioner
// (nil selects the block split).
func NewDistAppPartitioned(nx, ny, ranks int, p op2.Partitioner) (*DistApp, error) {
	consts := DefaultConstants()
	m, err := NewMesh(nx, ny, consts)
	if err != nil {
		return nil, err
	}
	return NewDistAppFromMesh(m, consts, ranks, p)
}

// NewDistAppFromMesh builds the distributed app over an existing mesh.
// The runtime is owned by the app: release its rank workers with Close.
func NewDistAppFromMesh(m *Mesh, consts Constants, ranks int, p op2.Partitioner) (*DistApp, error) {
	// WithPartitioner(nil) keeps the engine default (block split).
	rt, err := op2.New(op2.WithRanks(ranks), op2.WithPartitioner(p))
	if err != nil {
		return nil, err
	}
	// op_partition: cells are the prime set, pecell supplies the cell
	// adjacency (for graph partitioning), pcell+x the cell centroids
	// (for RCB). Edges and bedges derive their ownership from the cells
	// they increment.
	if err := rt.Partition(m.Cells, m.Pecell, m.Pcell, m.X); err != nil {
		rt.Close() //nolint:errcheck // best-effort cleanup on a failed constructor
		return nil, err
	}
	app, err := NewAppFromMesh(m, consts, rt)
	if err != nil {
		rt.Close() //nolint:errcheck // best-effort cleanup on a failed constructor
		return nil, err
	}
	return &DistApp{App: app, ranks: ranks}, nil
}

// Ranks reports the number of localities.
func (a *DistApp) Ranks() int { return a.ranks }

// Close stops the runtime's rank workers.
func (a *DistApp) Close() error { return a.Rt.Close() }

// Report returns the partitioning state: per-rank owned and halo sizes
// for every set, and edge-cut/imbalance for the cells partition.
func (a *DistApp) Report() []op2.PartitionStats { return a.Rt.PartitionReport() }

// Q returns the flow field. App.Run syncs (and thereby flushes the owned
// shards) before returning, so after a Run this is the authoritative
// distributed result.
func (a *DistApp) Q() []float64 { return a.M.Q.Data() }
