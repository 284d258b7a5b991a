package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig is one invocation: a workload, its input seed and how long
// to measure.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	setups  int    // cold set-ups timed for setup_s
	jobs    int    // cold time-to-solution runs timed for job_ms
	minRuns int    // least number of rounds of interleaved blocks (per epoch)
	outDir  string // where the traced run writes trace-<workload>.json
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ops counts the operations (steps) whose results were checked against
// the serial oracle. A failed check fails every step of the run.
type ops struct {
	attempted int
	failures  []error
}

func (o *ops) check(w workload, steps int, got, want state) {
	o.attempted += steps
	if w.check == nil {
		return
	}
	if err := w.check(got, want); err != nil {
		o.failures = append(o.failures, err)
	}
}

// result reports exactly the declared metrics: one a run did not
// measure reads 0, one it measured under an undeclared name is an error.
func (o *ops) result(values map[string]float64, defs []metricDef) (result, error) {
	r := result{Correct: len(o.failures) == 0, Attempted: max(1, o.attempted), Metrics: map[string]metricValue{}}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	for name := range values {
		if _, declared := r.Metrics[name]; !declared {
			return r, fmt.Errorf("metric %q is measured but not declared in metrics.go", name)
		}
	}
	return r, nil
}

// series are the timed blocks of one instance.
type series []blockTimes

func (s series) stepMs() []float64 {
	out := make([]float64, len(s))
	for i, b := range s {
		out[i] = ms(b.wall()) / float64(b.steps)
	}
	return out
}

func (s series) steps() (n int) {
	for _, b := range s {
		n += b.steps
	}
	return n
}

func (s series) wall() (d time.Duration) {
	for _, b := range s {
		d += b.wall()
	}
	return d
}

// coldSetups times builds of the subject from nothing to the end of its
// second step: mesh, runtime (and TCP bootstrap), partition,
// declaration, plan building and pool warm-up. It takes at least
// c.setups samples and, where a set-up is only milliseconds, goes on
// for a third of a second (at most 40 samples) so the median is steady.
func coldSetups(c runConfig) ([]float64, error) {
	var out []float64
	for begin := time.Now(); len(out) < c.setups || (len(out) < 8*c.setups && time.Since(begin) < time.Second/3); {
		t0 := time.Now()
		inst, err := c.w.build(subject, buildOpts{seed: c.seed})
		if err != nil {
			return nil, err
		}
		_, err = inst.block(2)
		out = append(out, time.Since(t0).Seconds())
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// coldJobs times c.jobs runs from a fresh runtime to the result copied
// out, and checks every one against the serial oracle.
func coldJobs(c runConfig, o *ops) ([]float64, error) {
	if c.w.jobSteps == 0 {
		return nil, nil
	}
	run := func(r role) (state, time.Duration, error) {
		t0 := time.Now()
		inst, err := c.w.build(r, buildOpts{seed: c.seed})
		if err != nil {
			return state{}, 0, err
		}
		_, err = inst.block(c.w.jobSteps)
		var st state
		if err == nil {
			st = inst.state()
		}
		d := time.Since(t0)
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		return st, d, err
	}
	want, _, err := run(serial)
	if err != nil {
		return nil, err
	}
	var out []float64
	for range c.jobs {
		got, d, err := run(subject)
		if err != nil {
			return nil, err
		}
		out = append(out, ms(d))
		o.check(c.w, c.w.jobSteps, got, want)
	}
	return out, nil
}

// liveHeapMB is the heap of live objects after two collections: the
// second one also empties the sync.Pools that earlier phases of the run
// filled, so what remains is what the live instance holds. (HeapInuse
// adds the free room of partly used spans, which on these heaps of a
// few MB varied by 17 to 27 % from run to run.)
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// closeAll closes the instances still open, keeping the first error.
func closeAll(err *error, insts []instance) {
	for i, in := range insts {
		if in == nil {
			continue
		}
		if cerr := in.close(); *err == nil {
			*err = cerr
		}
		insts[i] = nil
	}
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(c runConfig) (res result, err error) {
	w := c.w
	if w.prepare != nil {
		if err := w.prepare(c.seed); err != nil {
			return res, err
		}
	}
	var o ops
	setups, err := coldSetups(c)
	if err != nil {
		return res, err
	}
	jobs, err := coldJobs(c, &o)
	if err != nil {
		return res, err
	}

	// The timed blocks: subject, serial and fork-join on the same inputs,
	// one block each in turn so that drift of the machine cancels. Each
	// runs one untimed block first (plans, pools, chunk calibration).
	//
	// An instance keeps for its whole life the speed it happens to get:
	// two builds of the same inputs differ by 10 % in the step of the
	// two-rank runtime and by up to 30 % in a fork-join step where it is
	// short. A run therefore times several instances of each: the window
	// is cut into epochs that each start from fresh builds, and the
	// fork-join baseline, which no later block depends on, is rebuilt
	// every round. The medians are then over instances and blocks.
	const epochs = 4
	insts := make([]instance, 3)
	defer closeAll(&err, insts)
	var heap float64
	warm := func(r role) (err error) {
		o := buildOpts{seed: c.seed}
		if r == subject && heap == 0 {
			o.resident = func() { heap = liveHeapMB() }
		}
		if insts[r], err = w.build(r, o); err == nil {
			_, err = insts[r].block(w.blockSteps)
		}
		return err
	}
	timed := make([]series, 3)
	var twoBlocks state // the serial state after the warm-up and one block
	start := time.Now()
	for e := range epochs {
		for r := range insts {
			if err = warm(role(r)); err != nil {
				return res, err
			}
			if role(r) == subject && heap == 0 {
				heap = liveHeapMB() // before the baselines exist
			}
		}
		before := timed[subject].steps()
		end := start.Add(time.Duration(float64(e+1) / epochs * c.seconds * float64(time.Second)))
		for n := 0; n < c.minRuns || time.Now().Before(end); n++ {
			for r, in := range insts {
				bt, err := in.block(w.blockSteps)
				if err != nil {
					return res, fmt.Errorf("%s epoch %d block %d: %w", role(r), e, n, err)
				}
				timed[r] = append(timed[r], bt)
			}
			// Every fresh fork-join instance is checked against the
			// serial state after the same two blocks.
			if twoBlocks.fields == nil {
				twoBlocks = insts[serial].state()
			}
			o.check(w, 0, insts[forkjoin].state(), twoBlocks)
			if err = insts[forkjoin].close(); err != nil {
				return res, err
			}
			if err = warm(forkjoin); err != nil {
				return res, err
			}
		}
		// Subject and serial have run the same blocks: their final
		// states must agree.
		o.check(w, timed[subject].steps()-before, insts[subject].state(), insts[serial].state())
		if sv, ok := insts[subject].(*serviceInst); ok {
			// A job's time to solution is Submit to Result; the warm-up
			// round's jobs are left out.
			for _, d := range sv.latency[serviceJobs:] {
				jobs = append(jobs, ms(d))
			}
		}
		if closeAll(&err, insts); err != nil {
			return res, err
		}
	}

	sub := timed[subject]
	values := map[string]float64{
		"setup_s":          median(setups),
		"job_ms":           median(jobs),
		"step_ms":          median(sub.stepMs()),
		"serial_step_ms":   median(timed[serial].stepMs()),
		"forkjoin_step_ms": median(timed[forkjoin].stepMs()),
		"mcells_per_s":     float64(w.cells) * float64(sub.steps()) / sub.wall().Seconds() / 1e6,
		"heap_mb":          heap,
	}
	fmt.Printf("# blocks per configuration: %d of %d steps, over %d epochs\n", len(sub), w.blockSteps, epochs)

	for _, f := range o.failures {
		fmt.Printf("# ORACLE FAILED: %v\n", f)
	}
	return o.result(values, endToEnd)
}
