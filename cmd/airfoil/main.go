// Command airfoil runs the paper's evaluation workload (§II-B/§VI): the
// nonlinear 2D inviscid airfoil CFD code on a synthetic mesh, under any of
// the three loop execution backends, driven entirely through the public
// op2 facade. Ctrl-C cancels a running simulation cleanly through the
// loop-nest context.
//
// Examples:
//
//	airfoil -backend forkjoin -threads 8 -nx 400 -ny 200 -iters 100
//	airfoil -backend dataflow -threads 8 -chunker persistent -prefetch 15
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "airfoil:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		backendStr  = flag.String("backend", "dataflow", "loop execution backend: serial, forkjoin or dataflow")
		threads     = flag.Int("threads", runtime.NumCPU(), "worker threads (the --hpx:threads knob)")
		nx          = flag.Int("nx", 240, "mesh cells in x")
		ny          = flag.Int("ny", 120, "mesh cells in y")
		iters       = flag.Int("iters", 100, "time iterations")
		chunkerStr  = flag.String("chunker", "", "chunk sizing: static:<blocks>, even, auto or persistent (default per backend)")
		prefetch    = flag.Int("prefetch", 0, "prefetch_distance_factor in cache lines (0 = off)")
		paperMesh   = flag.Bool("paper-mesh", false, "use the paper's mesh scale (~720K nodes); overrides -nx/-ny")
		profile     = flag.Bool("profile", false, "print per-loop timing statistics after the run")
		renumber    = flag.Bool("renumber", false, "RCM-renumber the cell set before running (locality optimization)")
		saveMesh    = flag.String("save-mesh", "", "write the generated mesh to this file and exit")
		loadMesh    = flag.String("load-mesh", "", "load the mesh from this file instead of generating it")
		ranks       = flag.Int("ranks", 0, "run the distributed engine with this many simulated localities instead of the shared-memory backends")
		partitioner = flag.String("partitioner", "block", "distributed mesh partitioner: block, rcb or greedy")
	)
	flag.Parse()

	backend, err := parseBackend(*backendStr)
	if err != nil {
		return err
	}
	chunker, err := parseChunker(*chunkerStr)
	if err != nil {
		return err
	}
	if *paperMesh {
		*nx, *ny = airfoil.SizeForNodes(720_000)
	}

	consts := airfoil.DefaultConstants()
	var mesh *airfoil.Mesh
	if *loadMesh != "" {
		if mesh, err = airfoil.ReadMeshFile(*loadMesh, consts); err != nil {
			return err
		}
	} else if mesh, err = airfoil.NewMesh(*nx, *ny, consts); err != nil {
		return err
	}
	if *saveMesh != "" {
		if err := mesh.WriteMeshFile(*saveMesh); err != nil {
			return err
		}
		fmt.Printf("wrote %d-cell mesh to %s\n", mesh.Cells.Size(), *saveMesh)
		return nil
	}
	if *renumber {
		perm, err := op2.RCMPermutation(mesh.Cells, []*op2.Map{mesh.Pecell, mesh.Pbecell})
		if err != nil {
			return err
		}
		dats := []*op2.Dat{mesh.Q, mesh.Qold, mesh.Adt, mesh.Res}
		if err := op2.ApplyRenumber(mesh.Cells, perm, dats, []*op2.Map{mesh.Pecell, mesh.Pbecell}); err != nil {
			return err
		}
		fmt.Printf("renumbered cells: pecell bandwidth now %d\n", op2.Bandwidth(mesh.Pecell))
	}

	fmt.Printf("airfoil: %d cells, %d nodes, %d edges, %d bedges\n",
		mesh.Cells.Size(), mesh.Nodes.Size(), mesh.Edges.Size(), mesh.Bedges.Size())

	if *ranks > 0 {
		p, err := op2.PartitionerByName(*partitioner)
		if err != nil {
			return err
		}
		app, err := airfoil.NewDistAppFromMesh(mesh, consts, *ranks, p)
		if err != nil {
			return err
		}
		defer app.Close()
		fmt.Printf("backend=distributed ranks=%d partitioner=%s iters=%d\n", *ranks, *partitioner, *iters)
		start := time.Now()
		rms, err := app.Run(*iters)
		if err != nil {
			return err
		}
		report(start, *iters, rms)
		for _, st := range app.Report() {
			if !st.Derived {
				fmt.Printf("partition %s (%s): owned=%v edge-cut=%d imbalance=%.3f\n",
					st.Set, st.Method, st.Owned, st.EdgeCut, st.Imbalance)
			}
		}
		return nil
	}

	opts := []op2.Option{
		op2.WithBackend(backend),
		op2.WithPoolSize(*threads),
		op2.WithChunker(chunker), // nil = backend default
		op2.WithPrefetchDistance(*prefetch),
	}
	if *profile {
		opts = append(opts, op2.WithProfiling())
	}
	rt, err := op2.New(opts...)
	if err != nil {
		return err
	}
	defer rt.Close()

	app, err := airfoil.NewAppFromMesh(mesh, consts, rt)
	if err != nil {
		return err
	}

	fmt.Printf("backend=%s threads=%d chunker=%s prefetch=%d iters=%d\n",
		backend, *threads, chunkerName(chunker, backend), *prefetch, *iters)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	rms, err := app.RunCtx(ctx, *iters)
	if errors.Is(err, op2.ErrCanceled) {
		return fmt.Errorf("interrupted after %v", time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		return err
	}
	report(start, *iters, rms)
	if *profile {
		fmt.Println()
		if err := rt.WriteProfile(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func report(start time.Time, iters int, rms float64) {
	elapsed := time.Since(start)
	fmt.Printf("completed %d iterations in %v (%.3f ms/iter)\n",
		iters, elapsed.Round(time.Millisecond), float64(elapsed)/float64(iters)/1e6)
	fmt.Printf("rms residual: %.6e\n", rms)
}

func parseBackend(s string) (op2.Backend, error) {
	switch s {
	case "serial":
		return op2.Serial, nil
	case "forkjoin", "openmp", "omp":
		return op2.ForkJoin, nil
	case "dataflow", "hpx":
		return op2.Dataflow, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (want serial, forkjoin or dataflow)", s)
	}
}

func parseChunker(s string) (op2.Chunker, error) {
	switch {
	case s == "":
		return nil, nil // backend default
	case s == "even":
		return op2.EvenChunk(1), nil
	case s == "auto":
		return op2.AutoChunk(), nil
	case s == "persistent":
		return op2.PersistentAutoChunk(), nil
	case len(s) > 7 && s[:7] == "static:":
		var n int
		if _, err := fmt.Sscanf(s[7:], "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("invalid static chunk size %q", s[7:])
		}
		return op2.StaticChunk(n), nil
	default:
		return nil, fmt.Errorf("unknown chunker %q (want static:<n>, even, auto or persistent)", s)
	}
}

func chunkerName(c op2.Chunker, b op2.Backend) string {
	if c != nil {
		return c.Name()
	}
	if b == op2.ForkJoin {
		return "even (default)"
	}
	return "auto (default)"
}
