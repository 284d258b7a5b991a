package experiments

import (
	"fmt"
	"math"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/perf"
	"op2hpx/op2"
)

// DistRanks is the rank sweep of the distributed experiment.
var DistRanks = []int{1, 2, 4, 8}

// DistPoint is one measured configuration of the distributed airfoil:
// a (partitioner, ranks) pair with its timing, partition quality and
// bitwise-equality verdict against the serial backend.
type DistPoint struct {
	Partitioner string
	Ranks       int
	MeanMs      float64
	MinMs       float64
	Speedup     float64
	EdgeCut     int
	HaloCells   int
	Imbalance   float64
	Bitwise     bool
}

// DistReport is the measured result of the distributed experiment,
// rendered by DistTable.
type DistReport struct {
	Experiment string
	Mesh       string
	Iters      int
	Reps       int
	Points     []DistPoint
}

// DistData measures the distributed airfoil across ranks × partitioner
// and verifies each configuration bitwise against the serial backend.
func DistData(o Options) (*DistReport, error) {
	rt := op2.MustNew(op2.WithBackend(op2.Serial), op2.WithPoolSize(1))
	defer rt.Close()
	ref, err := airfoil.NewApp(o.NX, o.NY, rt)
	if err != nil {
		return nil, err
	}
	rmsRef, err := ref.Run(o.Iters)
	if err != nil {
		return nil, err
	}

	rep := &DistReport{
		Experiment: "airfoil-distributed",
		Mesh:       fmt.Sprintf("%dx%d", o.NX, o.NY),
		Iters:      o.Iters,
		Reps:       o.Reps,
	}
	for _, name := range []string{"block", "rcb", "greedy"} {
		p, err := op2.PartitionerByName(name)
		if err != nil {
			return nil, err
		}
		var base time.Duration
		for _, ranks := range DistRanks {
			app, err := airfoil.NewDistAppPartitioned(o.NX, o.NY, ranks, p)
			if err != nil {
				return nil, err
			}
			// Verification run on fresh state: this first Run must equal
			// the single serial reference run bit for bit. It doubles as
			// the warm-up (plans, shards and halos are built here).
			rms, err := app.Run(o.Iters)
			if err != nil {
				app.Close() //nolint:errcheck // already failing
				return nil, err
			}
			bitwise := math.Float64bits(rms) == math.Float64bits(rmsRef)
			for i, v := range app.Q() {
				if math.Float64bits(v) != math.Float64bits(ref.M.Q.Data()[i]) {
					bitwise = false
					break
				}
			}
			st, err := perf.Measure(0, o.Reps, func() error {
				_, err := app.Run(o.Iters)
				return err
			})
			if err != nil {
				app.Close() //nolint:errcheck // already failing
				return nil, err
			}
			pt := DistPoint{
				Partitioner: name,
				Ranks:       ranks,
				MeanMs:      float64(st.Mean) / float64(time.Millisecond),
				MinMs:       float64(st.Min) / float64(time.Millisecond),
				Bitwise:     bitwise,
			}
			if ranks == DistRanks[0] {
				base = st.Mean
			}
			pt.Speedup = perf.Speedup(base, st.Mean)
			for _, s := range app.Report() {
				if s.Derived {
					continue
				}
				pt.EdgeCut = s.EdgeCut
				pt.Imbalance = s.Imbalance
				for _, h := range s.Halo {
					pt.HaloCells += h
				}
			}
			app.Close() //nolint:errcheck // measurement done
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep, nil
}

// Dist renders the distributed rank sweep as a table: the subsystem's
// scaling, partition quality and bitwise verification at a glance.
func Dist(o Options) (*perf.Table, error) {
	rep, err := DistData(o)
	if err != nil {
		return nil, err
	}
	return DistTable(rep), nil
}

// DistTable renders an already-measured report.
func DistTable(rep *DistReport) *perf.Table {
	t := perf.NewTable("Distributed: airfoil across ranks × partitioner (owner-compute, overlapped halos)",
		"partitioner", "ranks", "mean", "speedup", "edge-cut", "halo cells", "imbalance", "bitwise")
	t.Note = fmt.Sprintf("mesh %s cells, %d iterations, mean of %d reps; speedup vs same partitioner at 1 rank",
		rep.Mesh, rep.Iters, rep.Reps)
	for _, p := range rep.Points {
		t.AddRow(p.Partitioner, p.Ranks, time.Duration(p.MeanMs*float64(time.Millisecond)),
			p.Speedup, p.EdgeCut, p.HaloCells, p.Imbalance, fmt.Sprint(p.Bitwise))
	}
	return t
}
