// Command benchmark is the repository's one benchmark: six workloads,
// seven end-to-end metrics measured with tracing off, and a traced run
// that reports every layer's own numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"op2hpx/internal/hpx/sched"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "manifest":
			_, err := os.Stdout.Write(manifestJSON())
			return err
		case "sweep":
			return sweepCommand(args[1:])
		case "compare":
			return compareCommand(args[1:], os.Stdout)
		}
	}
	return runCommand(args)
}

// poolSize is the worker count of the process-wide scheduler pool every
// shared-memory runtime of the benchmark runs on.
func poolSize() int { return min(runtime.NumCPU(), 4) }

func runCommand(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 0, "input seed; 0 keeps the generated element order")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "tiny inputs and counts, for tests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name, *smoke)
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	c := runConfig{w: w, seed: *seed, seconds: *seconds, setups: 5, jobs: 5, minRuns: 2,
		outDir: filepath.Join(root, "benchmark", "out")}
	if *smoke {
		c.setups, c.jobs, c.minRuns = 2, 2, 1
	}

	sched.ResetDefault(poolSize())
	start := time.Now()
	printHeader(c)
	var res result
	if *trace == 0 {
		res, err = runEndToEnd(c)
	} else {
		res, err = runTraced(c)
	}
	if err != nil {
		return err
	}
	wall := time.Since(start)
	printResult(res, wall)
	// A run is about 6 s of set-ups, cold runs and warm-up around its
	// measuring time; one that takes several times that no longer fits
	// the 22 runs per workload a comparison makes.
	if budget := time.Duration((15 + 3**seconds) * float64(time.Second)); wall > budget {
		return fmt.Errorf("%s: run took %.1f s, over its budget of %.0f s", w.name, wall.Seconds(), budget.Seconds())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: results differ from the serial oracle", w.name)
	}
	return nil
}

func printHeader(c runConfig) {
	e := readEnvironment()
	fmt.Printf("# commit %s, %s, GOMAXPROCS %d, nproc %d, %s, L2 %s, L3 %s\n",
		e.Commit, e.Go, e.GOMAXPROCS, e.NProc, e.CPU, e.L2, e.L3)
	fmt.Printf("# workload %s seed %d: %s, %d cells, working set %.1f MB, ranks %d, pool %d\n",
		c.w.name, c.seed, c.w.mesh, c.w.cells, float64(c.w.workingSet)/1e6, c.w.ranks, e.Pool)
	// One goroutine generates load for the pool's workers or for one
	// worker per in-process rank; over TCP every rank has an issuing
	// goroutine and a worker.
	threads := 1 + e.Pool
	if c.w.ranks > 0 {
		threads = 1 + c.w.ranks
		if c.w.airfoil.tcp {
			threads = 2 * c.w.ranks
		}
	}
	if threads > e.NProc {
		fmt.Printf("# oversubscribed: %d busy goroutines on %d processors\n", threads, e.NProc)
	}
}

func printResult(res result, wall time.Duration) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Printf("%-48s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	fmt.Printf("# wall %.1f s, %d steps checked, %d failed\n", wall.Seconds(), res.Attempted, res.Failed)
}
