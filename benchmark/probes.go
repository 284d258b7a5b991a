package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/core"
	"op2hpx/internal/hpx"
	"op2hpx/internal/hpx/sched"
	rnet "op2hpx/internal/net"
	"op2hpx/internal/part"
	"op2hpx/internal/translator"
	"op2hpx/op2"
)

// perCall times f in batches until the budget is spent (at least three
// batches) and returns the median nanoseconds per call.
func perCall(budget time.Duration, batch int, f func()) float64 {
	var samples []float64
	for begin := time.Now(); len(samples) < 3 || time.Since(begin) < budget; {
		t0 := time.Now()
		for range batch {
			f()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return median(samples)
}

// probeInputs are what the module probes work on: the time each timed
// probe may take, the mesh the partitioners and the plan builder get,
// and the mesh (with its seed) the bare kernels sweep.
type probeInputs struct {
	budget     time.Duration
	topo       airfoilWorkload
	kernelMesh airfoilWorkload
	seed       uint64
}

// probes are direct timed calls into the public functions of single
// modules, with no application around them. Only the kernel probe
// depends on the workload, so every traced run reports them all.
func probes(values map[string]float64, in probeInputs, tr *tracer) error {
	for _, p := range []struct {
		name string
		run  func(map[string]float64, probeInputs) error
	}{
		{"probe core", probeCore},
		{"probe hpx", probeHPX},
		{"probe airfoil kernels", probeKernels},
		{"probe net", probeNet},
		{"probe part", probePart},
		{"probe translator", probeTranslator},
	} {
		tr.begin(p.name)
		err := p.run(values, in)
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// resCalcLoop declares res_calc on the mesh as airfoil.App does.
func resCalcLoop(m *airfoil.Mesh) *core.Loop {
	return &core.Loop{Name: "res_calc", Set: m.Edges, Kernel: func([][]float64) {}, Args: []core.Arg{
		core.ArgDat(m.X, 0, m.Pedge, core.Read), core.ArgDat(m.X, 1, m.Pedge, core.Read),
		core.ArgDat(m.Q, 0, m.Pecell, core.Read), core.ArgDat(m.Q, 1, m.Pecell, core.Read),
		core.ArgDat(m.Adt, 0, m.Pecell, core.Read), core.ArgDat(m.Adt, 1, m.Pecell, core.Read),
		core.ArgDat(m.Res, 0, m.Pecell, core.Inc), core.ArgDat(m.Res, 1, m.Pecell, core.Inc),
	}}
}

// probeCore: plan building and step compilation on the topology mesh,
// and the issue cost of loops that do nothing.
func probeCore(values map[string]float64, in probeInputs) error {
	budget := in.budget
	m, _, err := in.topo.newMesh(0)
	if err != nil {
		return err
	}
	res := resCalcLoop(m)
	var plan *core.Plan
	values["core.plan_build_ms"] = perCall(budget, 1, func() {
		if plan, err = core.LoopPlan(res, 256); err != nil {
			panic(err) // the declaration above is fixed and valid
		}
	}) / 1e6
	values["core.plan_colors"] = float64(plan.NColors())
	values["core.plan_blocks"] = float64(plan.NBlocks())
	direct := &core.Loop{Name: "update", Set: m.Cells, Kernel: func([][]float64) {}, Args: []core.Arg{
		core.ArgDat(m.Qold, core.IDIdx, nil, core.Read), core.ArgDat(m.Q, core.IDIdx, nil, core.Write),
		core.ArgDat(m.Res, core.IDIdx, nil, core.RW), core.ArgDat(m.Adt, core.IDIdx, nil, core.Read),
	}}
	values["core.step_compile_ms"] = perCall(budget, 1, func() {
		if _, err = core.BuildStepPlan("probe", []*core.Loop{direct, res, direct, res, direct}); err != nil {
			panic(err) // fixed and valid, as above
		}
	}) / 1e6

	// Nine no-op loops over a one-element set, each reading and writing
	// the same dat, so each depends on the one before.
	rt, err := op2.New(op2.WithBackend(op2.Dataflow))
	if err != nil {
		return err
	}
	defer rt.Close() //nolint:errcheck // every issued loop is waited for below
	set, err := op2.DeclSet(1, "one")
	if err != nil {
		return err
	}
	d, err := op2.DeclDat(set, 1, nil, "d")
	if err != nil {
		return err
	}
	loop := rt.ParLoop("noop", set, op2.DirectArg(d, op2.RW)).Kernel(func([][]float64) {})
	ctx := context.Background()
	values["core.empty_loop_issue_ns"] = perCall(budget, 256, func() {
		err = loop.Async(ctx).Wait()
	})
	values["core.dep_chain_ns"] = perCall(budget, 64, func() {
		var last *op2.Future
		for range 9 {
			last = loop.Async(ctx)
		}
		err = last.Wait()
	}) / 9
	return err
}

// probeHPX: LCO hand-off between two goroutines, scheduler submit to
// run, and the per-chunk cost of a parallel for_each that does nothing.
func probeHPX(values map[string]float64, in probeInputs) error {
	budget := in.budget
	// Each LCO is reset by its waiter before the waiter signals back,
	// which orders every Reset before the next Resolve of the same LCO.
	var ping, pong hpx.LCO
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for last := false; !last; {
			ping.Wait() //nolint:errcheck // resolved with nil only
			ping.Reset()
			last = stop.Load()
			pong.Resolve(nil)
		}
	}()
	roundTrip := func() {
		ping.Resolve(nil)
		pong.Wait() //nolint:errcheck // resolved with nil only
		pong.Reset()
	}
	values["hpx.lco_roundtrip_ns"] = perCall(budget, 256, roundTrip)
	stop.Store(true)
	roundTrip()
	<-done

	pool := sched.Default()
	ran := make(chan struct{}, 1) // one task in flight
	var err error
	values["hpx.sched_submit_ns"] = perCall(budget, 256, func() {
		if err = pool.Submit(func() { ran <- struct{}{} }); err == nil {
			<-ran
		}
	})
	if err != nil {
		return err
	}

	const chunks = 64
	policy := hpx.ParPolicy().WithChunker(hpx.StaticChunker(1))
	values["hpx.foreach_chunk_overhead_ns"] = perCall(budget, 16, func() {
		err = hpx.ForEachChunk(policy, 0, chunks, func(lo, hi int) {}).Wait()
	}) / chunks
	return err
}

// probeKernels calls the public Airfoil kernels in a plain Go loop
// over the mesh's own slices: compute and gather with no runtime
// around them.
func probeKernels(values map[string]float64, in probeInputs) error {
	budget := in.budget
	m, c, err := in.kernelMesh.newMesh(in.seed)
	if err != nil {
		return err
	}
	x, q, qold, adt, res := m.X.Data(), m.Q.Data(), m.Qold.Data(), m.Adt.Data(), m.Res.Data()
	pcell, pedge, pecell := m.Pcell.Data(), m.Pedge.Data(), m.Pecell.Data()
	copy(qold, q)
	ncell, nedge := m.Cells.Size(), m.Edges.Size()
	values["airfoil.kernel_ns_per_elem.adt_calc"] = perCall(budget, 1, func() {
		for e := range ncell {
			n1, n2, n3, n4 := 2*int(pcell[4*e]), 2*int(pcell[4*e+1]), 2*int(pcell[4*e+2]), 2*int(pcell[4*e+3])
			c.AdtCalc(x[n1:n1+2], x[n2:n2+2], x[n3:n3+2], x[n4:n4+2], q[4*e:4*e+4], adt[e:e+1])
		}
	}) / float64(ncell)
	values["airfoil.kernel_ns_per_elem.res_calc"] = perCall(budget, 1, func() {
		for e := range nedge {
			n1, n2 := 2*int(pedge[2*e]), 2*int(pedge[2*e+1])
			c1, c2 := int(pecell[2*e]), int(pecell[2*e+1])
			c.ResCalc(x[n1:n1+2], x[n2:n2+2], q[4*c1:4*c1+4], q[4*c2:4*c2+4],
				adt[c1:c1+1], adt[c2:c2+1], res[4*c1:4*c1+4], res[4*c2:4*c2+4])
		}
	}) / float64(nedge)
	rms := []float64{0}
	values["airfoil.kernel_ns_per_elem.update"] = perCall(budget, 1, func() {
		for e := range ncell {
			airfoil.Update(qold[4*e:4*e+4], q[4*e:4*e+4], res[4*e:4*e+4], adt[e:e+1], rms)
		}
	}) / float64(ncell)
	return nil
}

// probeNet: the round trip of one 480-double halo payload between two
// TCP transports on loopback.
func probeNet(values map[string]float64, in probeInputs) error {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	ts := make([]*rnet.Transport, 2)
	err := parallel(2, func(r int) (err error) {
		if ts[r], err = rnet.New(rnet.Config{Rank: r, Peers: addrs, Listener: lns[r], Meta: "pingpong"}); err != nil {
			return err
		}
		return ts[r].Start(context.Background())
	})
	defer func() {
		for _, t := range ts {
			if t != nil {
				t.Close() //nolint:errcheck // probe teardown
			}
		}
	}()
	if err != nil {
		return err
	}
	hop := func(from, to int) {
		if err != nil {
			return
		}
		// Send takes the payload over (it would recycle it into the
		// engine's pool), so every hop sends a buffer of its own.
		if err = ts[from].Send(from, to, make([]float64, 480)); err != nil {
			return
		}
		f := ts[to].Recv(to, from)
		if _, err = f.Get(); err == nil {
			f.Release()
		}
	}
	values["net.pingpong_us"] = perCall(in.budget, 16, func() { hop(0, 1); hop(1, 0) }) / 1e3
	return err
}

// probePart: the three partitioners at two ranks on the topology mesh.
func probePart(values map[string]float64, in probeInputs) error {
	m, _, err := in.topo.newMesh(0)
	if err != nil {
		return err
	}
	t := part.NewTopology(m.Cells.Size())
	if err := t.AddAdjacencyMap(m.Pecell); err != nil {
		return err
	}
	if err := t.SetCentroidsVia(m.Pcell, m.X); err != nil {
		return err
	}
	for _, p := range []part.Partitioner{part.Block{}, part.RCB{}, part.GreedyGraph{}} {
		var owner []int32
		values["part.partition_ms."+p.Name()] = perCall(in.budget, 1, func() {
			if err == nil {
				owner, err = p.Partition(2, t)
			}
		}) / 1e6
		if err != nil {
			return err
		}
		values["part.edge_cut."+p.Name()] = float64(part.EdgeCut(owner, t))
	}
	return nil
}

// probeTranslator: parse and generate the Airfoil declarations, twice,
// and compare the outputs byte for byte.
func probeTranslator(values map[string]float64, in probeInputs) error {
	budget := in.budget
	root, err := repoRoot()
	if err != nil {
		return err
	}
	src, err := os.ReadFile(filepath.Join(root, "internal", "translator", "testdata", "airfoil.op2"))
	if err != nil {
		return err
	}
	var prog *translator.Program
	values["translator.parse_us"] = perCall(budget, 4, func() {
		if err == nil {
			prog, err = translator.Parse(string(src))
		}
	}) / 1e3
	if err != nil {
		return err
	}
	var outs [][]byte
	values["translator.generate_us"] = perCall(budget, 4, func() {
		var out []byte
		if out, err = translator.Generate(prog, "airfoilgen", translator.ModeDataflow, "airfoil.op2"); err == nil && len(outs) < 2 {
			outs = append(outs, out)
		}
	}) / 1e3
	if err != nil {
		return err
	}
	values["translator.output_bytes"] = float64(len(outs[0]))
	if bytes.Equal(outs[0], outs[1]) {
		values["translator.deterministic"] = 1
	}
	return nil
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found at or above the working directory")
		}
		dir = parent
	}
}
