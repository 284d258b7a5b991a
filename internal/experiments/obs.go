package experiments

import (
	"fmt"
	"runtime"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/perf"
	"op2hpx/op2"
)

// ObsPoint is one measured observability mode of the airfoil step hot
// path: the pipelined Dataflow timestep with the layer off, with the
// metrics registry attached, and with metrics plus phase tracing.
type ObsPoint struct {
	Mode          string
	NsPerIter     float64
	AllocsPerIter float64
	OverheadPct   float64
}

// ObsReport is the measured result of the observability-overhead
// experiment, rendered by ObsTable — the proof
// that the telemetry layer is effectively free on the hot path.
type ObsReport struct {
	Experiment string
	Mesh       string
	Iters      int
	Reps       int
	Threads    int
	Note       string
	Points     []ObsPoint
}

// ObsData measures the cost of the observability layer on the airfoil
// step hot path: wall-clock and heap allocations per timestep with the
// layer compiled in but off (the baseline every prior steady-state
// result was measured at), with a metrics registry attached (per-loop
// and per-fused-group latency histograms, step counters), and with
// metrics plus the span ring. The acceptance bar is single-digit
// percent overhead for the metrics mode.
func ObsData(o Options) (*ObsReport, error) {
	rep := &ObsReport{
		Experiment: "airfoil-observability-overhead",
		Mesh:       fmt.Sprintf("%dx%d", o.NX, o.NY),
		Iters:      o.Iters,
		Reps:       o.Reps,
		Threads:    runtime.NumCPU(),
		Note: "Observability overhead on the pipelined Dataflow airfoil timestep: 'off' is the " +
			"default runtime (layer compiled in, nothing attached — one nil check per loop), " +
			"'metrics' attaches a registry (every loop and fused group observes its latency " +
			"into a fixed-bucket histogram: one time.Now pair plus atomic bucket increment and " +
			"CAS sum, no allocations), 'metrics+trace' additionally records one span per " +
			"execution into a fixed ring under a mutex. overhead_pct_vs_off compares mean " +
			"ns/iteration against the off mode measured in the same process.",
	}

	modes := []struct {
		name string
		opts []op2.Option
	}{
		{"off", nil},
		{"metrics", []op2.Option{op2.WithMetrics()}},
		{"metrics+trace", []op2.Option{op2.WithMetrics(), op2.WithTracing(1 << 16)}},
	}
	var baseline float64
	for _, m := range modes {
		opts := append([]op2.Option{op2.WithBackend(op2.Dataflow)}, m.opts...)
		rt, err := op2.New(opts...)
		if err != nil {
			return nil, err
		}
		app, err := airfoil.NewApp(o.NX, o.NY, rt)
		if err != nil {
			rt.Close() //nolint:errcheck
			return nil, err
		}
		if _, err := app.Run(o.Iters); err != nil { // warm plans, pools, metric handles
			rt.Close() //nolint:errcheck
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := perf.Measure(0, o.Reps, func() error {
			_, err := app.Run(o.Iters)
			return err
		})
		runtime.ReadMemStats(&m1)
		cerr := rt.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		nsIter := float64(st.Mean.Nanoseconds()) / float64(o.Iters)
		if m.name == "off" {
			baseline = nsIter
		}
		overhead := 0.0
		if baseline > 0 {
			overhead = 100 * (nsIter/baseline - 1)
		}
		rep.Points = append(rep.Points, ObsPoint{
			Mode:          m.name,
			NsPerIter:     nsIter,
			AllocsPerIter: float64(m1.Mallocs-m0.Mallocs) / float64(o.Reps*o.Iters),
			OverheadPct:   overhead,
		})
	}
	return rep, nil
}

// Obs renders the observability-overhead experiment as a table.
func Obs(o Options) (*perf.Table, error) {
	rep, err := ObsData(o)
	if err != nil {
		return nil, err
	}
	return ObsTable(rep), nil
}

// ObsTable renders an already-measured report.
func ObsTable(rep *ObsReport) *perf.Table {
	t := perf.NewTable("Observability overhead: airfoil step hot path, off vs metrics vs metrics+trace",
		"mode", "ns/iter", "allocs/iter", "overhead %")
	t.Note = fmt.Sprintf("mesh %s cells, %d iterations, mean of %d reps, %d threads; %s",
		rep.Mesh, rep.Iters, rep.Reps, rep.Threads, rep.Note)
	for _, p := range rep.Points {
		t.AddRow(p.Mode, int64(p.NsPerIter), p.AllocsPerIter, fmt.Sprintf("%.2f", p.OverheadPct))
	}
	return t
}
