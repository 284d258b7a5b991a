package main

import (
	"fmt"
	"math"
	"net"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// airfoilWorkload is the Airfoil application on an nx×ny mesh: shared
// memory (ranks == 0), two in-process ranks, or one runtime per rank
// over TCP.
type airfoilWorkload struct {
	nx, ny int
	ranks  int
	tcp    bool
}

func (w airfoilWorkload) sizes() (nodes, cells, edges, bedges int) {
	return (w.nx + 1) * (w.ny + 1), w.nx * w.ny, (w.nx-1)*w.ny + w.nx*(w.ny-1), 2*w.nx + 2*w.ny
}

func (w airfoilWorkload) workload(name string, blockSteps, jobSteps int, why string) workload {
	nodes, cells, edges, bedges := w.sizes()
	return workload{
		name: name, why: why,
		mesh:       fmt.Sprintf("airfoil %dx%d", w.nx, w.ny),
		cells:      cells,
		workingSet: 8*(2*nodes+13*cells+bedges) + 4*(4*cells+4*edges+3*bedges),
		ranks:      w.ranks,
		airfoil:    &w,
		blockSteps: blockSteps,
		jobSteps:   jobSteps,
		build:      w.build,
		check:      checkAirfoil,
	}
}

// bytesPerStep is the memory traffic of one timestep computed from the
// array sizes and the loops' access descriptors (every gathered or
// scattered value counted once per access, caches ignored): save_soln
// once, then adt_calc, res_calc, bres_calc and update twice.
func (w airfoilWorkload) bytesPerStep() int {
	_, cells, edges, bedges := w.sizes()
	saveSoln := 64 * cells   // q read, qold written
	adtCalc := 120 * cells   // 4 x via pcell + the map row, q, adt
	resCalc := 256 * edges   // 2 x, 2 q, 2 adt, 2 res read+written, 2 map rows
	bresCalc := 156 * bedges // 2 x, q, adt, res read+written, bound, 2 map rows
	update := 136 * cells    // qold, q, res read+written, adt
	return saveSoln + 2*(adtCalc+resCalc+bresCalc+update)
}

// newMesh generates the mesh and, for a non-zero seed, shuffles its
// interior edges through the public map slices before any loop is
// declared on it.
func (w airfoilWorkload) newMesh(seed uint64) (*airfoil.Mesh, airfoil.Constants, error) {
	consts := airfoil.DefaultConstants()
	m, err := airfoil.NewMesh(w.nx, w.ny, consts)
	if err != nil {
		return nil, consts, err
	}
	shuffleRows(seed, [][]int32{m.Pedge.Data(), m.Pecell.Data()}, []int{2, 2})
	return m, consts, nil
}

func (w airfoilWorkload) build(r role, o buildOpts) (instance, error) {
	if r != subject || !w.tcp {
		return w.buildRank(r, o, nil)
	}
	// One runtime per rank, SPMD, each on its own goroutine as separate
	// rank processes would be; op2.New returns once the world has
	// bootstrapped, so the ranks must be built concurrently.
	lns := make([]net.Listener, w.ranks)
	addrs := make([]string, w.ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	t := &tcpAirfoil{ranks: make([]*airfoilRank, w.ranks)}
	err := parallel(w.ranks, func(i int) error {
		ro := o
		if i != 0 {
			ro.tr, ro.reg, ro.ring = nil, nil, nil // rank 0's clock and instruments
		}
		rank, err := w.buildRank(r, ro, &op2.TCPConfig{
			Rank: i, Peers: addrs, Listener: lns[i],
			Meta: fmt.Sprintf("bench airfoil %dx%d seed %d", w.nx, w.ny, o.seed),
		})
		t.ranks[i] = rank
		return err
	})
	if err != nil {
		t.close() //nolint:errcheck // the build error is the root cause
		return nil, err
	}
	return t, nil
}

// airfoilRank is one runtime with the application declared on it.
type airfoilRank struct {
	rt        *op2.Runtime
	app       *airfoil.App
	tr        *tracer
	lastSteps int
}

func (w airfoilWorkload) buildRank(r role, o buildOpts, tcp *op2.TCPConfig) (*airfoilRank, error) {
	tr := o.tr
	tr.begin("airfoil.NewMesh")
	m, consts, err := w.newMesh(o.seed)
	tr.end()
	if err != nil {
		return nil, err
	}

	opts := o.observe()
	switch {
	case r == subject && tcp != nil:
		opts = append(opts, op2.WithTCPTransport(*tcp))
	case r == subject && w.ranks > 0:
		opts = append(opts, op2.WithRanks(w.ranks))
	default:
		opts = append(opts, op2.WithBackend(r.backend()))
	}
	tr.begin("op2.New")
	rt, err := op2.New(opts...)
	tr.end()
	if err != nil {
		return nil, err
	}
	if rt.Distributed() {
		tr.begin("dist.Partition")
		err = rt.Partition(m.Cells, m.Pecell, m.Pcell, m.X)
		tr.end()
		if err != nil {
			rt.Close() //nolint:errcheck // the partition error is the root cause
			return nil, err
		}
	}
	tr.begin("airfoil.declare")
	app, err := airfoil.NewAppFromMesh(m, consts, rt)
	tr.end()
	if err != nil {
		rt.Close() //nolint:errcheck // the declaration error is the root cause
		return nil, err
	}
	return &airfoilRank{rt: rt, app: app, tr: tr}, nil
}

func (a *airfoilRank) block(steps int) (bt blockTimes, err error) {
	// The previous block's Sync settled rms; reset it so state() reports
	// the residual of this block alone, as App.Run does.
	if err = a.app.Rms.Set([]float64{0}); err != nil {
		return bt, err
	}
	a.lastSteps = steps
	bt.steps = steps
	bt.net[0], _ = a.rt.NetStats()
	bt.start = time.Now()
	for range steps {
		if err = a.app.Step(); err != nil {
			return bt, err
		}
	}
	bt.issued = time.Now()
	if err = a.rt.Fence(); err != nil {
		return bt, err
	}
	bt.fenced = time.Now()
	bt.net[1], _ = a.rt.NetStats()
	err = a.app.Sync()
	bt.synced = time.Now()
	bt.net[2], _ = a.rt.NetStats()
	a.tr.add("issue", bt.start, bt.issued)
	a.tr.add("rt.Fence", bt.issued, bt.fenced)
	a.tr.add("app.Sync", bt.fenced, bt.synced)
	return bt, err
}

func (a *airfoilRank) state() state {
	q := append([]float64(nil), a.app.M.Q.Data()...)
	rms := math.Sqrt(a.app.Rms.Data()[0] / float64(2*a.app.M.Cells.Size()*max(1, a.lastSteps)))
	return state{fields: [][]float64{q}, scalars: []float64{rms}}
}

func (a *airfoilRank) runtime() *op2.Runtime { return a.rt }

func (a *airfoilRank) close() error { return a.rt.Close() }

// tcpAirfoil is a TCP world: every operation runs on all ranks at
// once, and rank 0's clock is the one reported.
type tcpAirfoil struct {
	ranks []*airfoilRank
}

func (t *tcpAirfoil) block(steps int) (blockTimes, error) {
	times := make([]blockTimes, len(t.ranks))
	err := parallel(len(t.ranks), func(i int) (err error) {
		times[i], err = t.ranks[i].block(steps)
		return err
	})
	return times[0], err
}

func (t *tcpAirfoil) state() state {
	st := t.ranks[0].state()
	for _, r := range t.ranks[1:] {
		st.fields = append(st.fields, r.state().fields...)
	}
	return st
}

func (t *tcpAirfoil) runtime() *op2.Runtime { return t.ranks[0].rt }

func (t *tcpAirfoil) close() error {
	return parallel(len(t.ranks), func(i int) error {
		if t.ranks[i] == nil {
			return nil
		}
		return t.ranks[i].close()
	})
}

// checkAirfoil is the Airfoil oracle: the flow field of every rank
// bitwise equal to the serial one, rms within 1e-12 relative (its
// reduction grid follows the timing-calibrated chunker).
func checkAirfoil(got, want state) error {
	for r, f := range got.fields {
		if i := firstDiff(f, want.fields[0]); i >= 0 {
			return fmt.Errorf("rank %d: q[%d] differs bitwise from the serial oracle", r, i)
		}
	}
	if !relClose(got.scalars[0], want.scalars[0], 1e-12) {
		return fmt.Errorf("rms %.17g differs from the serial oracle's %.17g", got.scalars[0], want.scalars[0])
	}
	return nil
}
