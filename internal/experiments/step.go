package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/perf"
	"op2hpx/op2"
)

// StepRanks is the rank sweep of the step experiment.
var StepRanks = []int{2, 4, 8}

// StepPoint is one measured configuration of the step experiment: the
// distributed airfoil at a rank count, issued either as one Step per
// timestep (batched) or one loop at a time (unbatched), with halo
// messages per iteration and wall time per iteration.
type StepPoint struct {
	Mode        string  `json:"mode"` // "step" or "loop-at-a-time"
	Ranks       int     `json:"ranks"`
	MsgsPerIter float64 `json:"messages_per_iteration"`
	NsPerIter   float64 `json:"ns_per_iteration"`
	MeanMs      float64 `json:"mean_ms"`
	Bitwise     bool    `json:"bitwise_vs_serial"`
}

// StepReport is the machine-readable result of the step experiment,
// written as BENCH_step.json by cmd/experiments — the before/after
// datapoint for the Step graph API.
type StepReport struct {
	Experiment string      `json:"experiment"`
	Mesh       string      `json:"mesh"`
	Iters      int         `json:"iters"`
	Reps       int         `json:"reps"`
	Note       string      `json:"note"`
	Points     []StepPoint `json:"points"`
}

// StepData measures the distributed airfoil batched (Step) versus
// unbatched (loop-at-a-time) across ranks, verifying each configuration
// bitwise against the serial backend and counting halo messages per
// iteration in steady state.
func StepData(o Options) (*StepReport, error) {
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

	rep := &StepReport{
		Experiment: "airfoil-step-vs-loop-at-a-time",
		Mesh:       fmt.Sprintf("%dx%d", o.NX, o.NY),
		Iters:      o.Iters,
		Reps:       o.Reps,
		Note: "The stock airfoil timestep's exchange schedule is already minimal " +
			"(one read exchange per RK sub-iteration; increments need none), so messages/iteration " +
			"match between modes; the Step buys one submission per timestep. Multi-reader " +
			"pipelines (gradient→limiter→flux shapes) send strictly fewer messages with Steps " +
			"(internal/dist TestStepPipelineFewerMessages).",
	}
	for _, mode := range []struct {
		name        string
		loopAtATime bool
	}{
		{"step", false},
		{"loop-at-a-time", true},
	} {
		for _, ranks := range StepRanks {
			app, err := airfoil.NewDistApp(o.NX, o.NY, ranks)
			if err != nil {
				return nil, err
			}
			app.LoopAtATime = mode.loopAtATime
			// Verification run on fresh state, doubling as warm-up.
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
			msgsBefore := app.Rt.HaloMessagesSent()
			st, err := perf.Measure(0, o.Reps, func() error {
				_, err := app.Run(o.Iters)
				return err
			})
			if err != nil {
				app.Close() //nolint:errcheck // already failing
				return nil, err
			}
			iterations := int64(o.Reps) * int64(o.Iters)
			msgs := float64(app.Rt.HaloMessagesSent()-msgsBefore) / float64(iterations)
			rep.Points = append(rep.Points, StepPoint{
				Mode:        mode.name,
				Ranks:       ranks,
				MsgsPerIter: msgs,
				NsPerIter:   float64(st.Mean.Nanoseconds()) / float64(o.Iters),
				MeanMs:      float64(st.Mean) / float64(time.Millisecond),
				Bitwise:     bitwise,
			})
			app.Close() //nolint:errcheck // measurement done
		}
	}
	return rep, nil
}

// Step renders the step experiment as a table.
func Step(o Options) (*perf.Table, error) {
	rep, err := StepData(o)
	if err != nil {
		return nil, err
	}
	return StepTable(rep), nil
}

// StepTable renders an already-measured report.
func StepTable(rep *StepReport) *perf.Table {
	t := perf.NewTable("Step graphs: airfoil timestep issued as one Step vs loop-at-a-time (distributed)",
		"mode", "ranks", "msgs/iter", "ns/iter", "mean", "bitwise")
	t.Note = fmt.Sprintf("mesh %s cells, %d iterations, mean of %d reps; %s",
		rep.Mesh, rep.Iters, rep.Reps, rep.Note)
	for _, p := range rep.Points {
		t.AddRow(p.Mode, p.Ranks, p.MsgsPerIter, int64(p.NsPerIter),
			time.Duration(p.MeanMs*float64(time.Millisecond)), fmt.Sprint(p.Bitwise))
	}
	return t
}

// WriteJSON writes the report as indented JSON.
func (r *StepReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
