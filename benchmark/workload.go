package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"op2hpx/op2"
)

// role says which configuration of a workload an instance runs: the
// workload's own backend, or one of the two baselines measured beside
// it on the same inputs in the same process.
type role int

const (
	subject  role = iota // the workload's configured backend
	serial               // op2.Serial: the oracle and the overhead base
	forkjoin             // op2.ForkJoin at the same pool size: the paper's baseline
)

func (r role) String() string { return [...]string{"subject", "serial", "forkjoin"}[r] }

// backend is the shared-memory backend of the role; rank workloads
// replace the subject's.
func (r role) backend() op2.Backend {
	return [...]op2.Backend{op2.Dataflow, op2.Serial, op2.ForkJoin}[r]
}

// buildOpts carry what a build needs besides the workload's own
// parameters: the input seed, the tracer recording set-up spans, the
// observability attachments of a traced instance and runtime options of
// a variant (prefetch, persistent chunker).
type buildOpts struct {
	seed uint64
	// resident, when set, is called by instances whose memory is live
	// only inside a block (the service's jobs), once all of it exists.
	resident func()
	tr       *tracer
	reg      *op2.Metrics   // set on a traced instance, nil otherwise
	ring     *op2.TraceRing // likewise
	extra    []op2.Option
}

// observe returns the variant's runtime options plus the attachments
// of a traced instance (both are no-ops when nil).
func (o buildOpts) observe() []op2.Option {
	return append(append([]op2.Option(nil), o.extra...), op2.WithMetricsRegistry(o.reg), op2.WithTraceRing(o.ring))
}

// blockTimes are the boundaries of one block on the issuing goroutine:
// steps are issued in [start, issued), the runtime finishes them by
// fenced, and the results are back in host memory at synced.
type blockTimes struct {
	start, issued, fenced, synced time.Time
	steps                         int
	// wire counters at start, fenced and synced (TCP instances only)
	net [3]op2.NetStats
}

func (b blockTimes) wall() time.Duration { return b.synced.Sub(b.start) }

// state is what the oracle compares: the result fields copied out (one
// per rank that holds a copy) and the scalars reported beside them.
type state struct {
	fields  [][]float64
	scalars []float64
}

// instance is one built configuration of a workload. block issues
// `steps` steps asynchronously where the backend allows it and then
// synchronises once, so dataflow interleaving across steps is kept.
type instance interface {
	block(steps int) (blockTimes, error)
	state() state
	// runtime is the op2 runtime whose counters describe the instance
	// (rank 0's over TCP); nil where jobs own their runtimes.
	runtime() *op2.Runtime
	close() error
}

// workload is one set of inputs of the benchmark.
type workload struct {
	name, why  string
	mesh       string // human-readable input size
	cells      int    // cell updates per step, for mcells_per_s
	workingSet int    // bytes of dats and maps
	ranks      int
	airfoil    *airfoilWorkload // the Airfoil mesh behind the workload, if any
	smoke      bool
	blockSteps int  // steps per timed block
	jobSteps   int  // steps of the cold time-to-solution run
	variants   bool // also measure the prefetch and persistent-chunker variants
	// prepare computes what the oracle needs before anything is timed.
	prepare func(seed uint64) error
	build   func(r role, o buildOpts) (instance, error)
	// check compares a subject state with the serial oracle's.
	check func(got, want state) error
}

// sizes of one scale of the benchmark; smoke shrinks every input so
// the tests can run all workloads in seconds.
func workloads(smoke bool) []workload {
	div := 1
	if smoke {
		div = 6
	}
	large := airfoilWorkload{nx: 360 / div, ny: 180 / div}
	small := airfoilWorkload{nx: 60, ny: 30}
	ranks := airfoilWorkload{nx: 240 / div, ny: 120 / div, ranks: 2}
	tcp := airfoilWorkload{nx: 240 / div, ny: 120 / div, ranks: 2, tcp: true}
	steps := func(n int) int { return max(2, n/(div*div)) }
	ws := []workload{
		large.workload("airfoil_large", steps(10), steps(100),
			"64,800 cells (11 MB, beyond L2): kernel compute and memory traffic are most of the step, so kernel and layout work shows here and orchestration work does not; the paper's claim is read here"),
		small.workload("airfoil_small", steps(300), steps(2000),
			"1,800 cells (L2-resident): nine loop issues per 0.3 ms step, so the core issue path, hpx LCOs and scheduler wake-ups are a large share and kernels are cheap"),
		ranks.workload("airfoil_ranks", steps(40), steps(100),
			"two in-process ranks: internal/dist does most of the added work (halo pack/unpack, gates, increment buffering, serial-order apply); the two-rank overhead over serial lives here"),
		tcp.workload("airfoil_tcp", steps(40), steps(100),
			"the same dist schedule over real loopback sockets, one runtime per rank: its difference from airfoil_ranks is internal/net (frames, writer queues, syscalls)"),
		aeroWorkload(80/div, steps(50), steps(100),
			"6,400 cells, CG with two host-read reductions per iteration and generic view kernels: dataflow cannot run ahead and is slower than serial; trading sync latency for issue throughput loses here"),
		serviceWorkload(120/div, 60/div, steps(40),
			"closed loop of 8 concurrent jobs through one op2.Service: admission, start workers, the round-robin scheduler pass and retire, plus per-job runtime set-up on the shared pool"),
	}
	ws[0].variants = true
	for i := range ws {
		ws[i].smoke = smoke
	}
	return ws
}

func findWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads(smoke) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shuffleRows permutes the rows of the given map tables (all over the
// same set, row width dims[i]) with one seeded permutation that moves
// elements only within windows of 256. The windows are the plan's
// blocks, so block membership and colouring stay; the gather locality
// and the order of increments inside every block change, and the mesh
// stays the same mesh. Seed 0 keeps the generated order.
func shuffleRows(seed uint64, tables [][]int32, dims []int) {
	if seed == 0 {
		return
	}
	const window = 256
	n := len(tables[0]) / dims[0]
	rng := rand.New(rand.NewPCG(seed, 0x6f7032687078)) // "op2hpx"
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		rng.Shuffle(hi-lo, func(i, j int) {
			for t, tab := range tables {
				d := dims[t]
				a, b := tab[(lo+i)*d:(lo+i+1)*d], tab[(lo+j)*d:(lo+j+1)*d]
				for k := range a {
					a[k], b[k] = b[k], a[k]
				}
			}
		})
	}
}

// firstDiff reports the first index where two fields differ in any
// bit, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func relClose(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// parallel runs f(0..n-1) on n goroutines and returns the first error.
func parallel(n int, f func(r int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = f(r)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
