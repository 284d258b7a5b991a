// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§VI) on this machine — Table I and Figs. 15-20 —
// plus the distributed rank sweep of the owner-compute engine.
//
// Examples:
//
//	experiments                  # full sweep at laptop scale
//	experiments -exp fig17       # one experiment
//	experiments -paper           # the paper's mesh scale (~720K nodes)
//	experiments -reps 5 -iters 20
//
// Machine-readable results come from the benchmark module (benchmark/).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"op2hpx/internal/experiments"
	"op2hpx/internal/perf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment: all, table1, fig15, fig16, fig17, fig18, fig19, fig20, dist, step, hotpath, service, obs")
		paper      = flag.Bool("paper", false, "paper-scale workload (~720K mesh nodes; minutes per figure)")
		nx         = flag.Int("nx", 0, "override mesh cells in x")
		ny         = flag.Int("ny", 0, "override mesh cells in y")
		iters      = flag.Int("iters", 0, "override time iterations per measurement")
		reps       = flag.Int("reps", 0, "override measured repetitions")
		maxThreads = flag.Int("max-threads", runtime.NumCPU(), "largest thread count in sweeps")
	)
	flag.Parse()

	o := experiments.Default()
	if *paper {
		o = experiments.Paper()
	}
	if *nx > 0 {
		o.NX = *nx
	}
	if *ny > 0 {
		o.NY = *ny
	}
	if *iters > 0 {
		o.Iters = *iters
	}
	if *reps > 0 {
		o.Reps = *reps
	}
	o.Threads = perf.ThreadSweep(*maxThreads)

	fmt.Printf("op2hpx experiment harness: mesh %dx%d cells, %d iterations, %d reps, threads %v\n\n",
		o.NX, o.NY, o.Iters, o.Reps, o.Threads)

	if *exp == "all" {
		tabs, err := experiments.All(o)
		for _, t := range tabs {
			t.Render(os.Stdout)
			fmt.Println()
		}
		return err
	}
	fn, ok := experiments.ByName(*exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	tab, err := fn(o)
	if err != nil {
		return err
	}
	tab.Render(os.Stdout)
	return nil
}
