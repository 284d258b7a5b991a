package core

import (
	"fmt"
	"sync"

	"op2hpx/internal/hpx"
)

// versionState tracks the dependency chain of a resource (a Dat or a
// Global) in dataflow mode: the future of the last loop that wrote it and
// the futures of loops reading it since. Access descriptors map onto it:
//
//	READ  depends on lastWrite           (RAW)
//	WRITE/RW/INC depend on lastWrite and all readers (WAW, WAR)
//
// This is how "op_arg_dat produces an argument as a future" (§IV, Fig. 7)
// turns program order into the execution DAG of Fig. 11.
type versionState struct {
	mu        sync.Mutex
	lastWrite *chainHandle
	// readers[head:] are the loops that read the resource since
	// lastWrite, in issue order; readers[:head] are slots whose readers
	// settled and were released at the head of the list.
	readers []*chainHandle
	head    int
	// compactAt is the live reader count at which a Read record runs
	// the next full compaction: twice the count the last one kept.
	compactAt int
}

// minCompactReaders is the smallest live reader count that triggers a
// full compaction on a Read record.
const minCompactReaders = 8

// live returns the readers recorded since lastWrite that are not yet
// released. Caller holds v.mu.
func (v *versionState) live() []*chainHandle { return v.readers[v.head:] }

// appendDependencies appends the futures a new access must wait for
// into a caller-owned buffer — the one definition of dependency
// gathering. The hot issue paths reuse their buffers across invocations
// instead of allocating a fresh slice per loop; allocating callers pass
// nil.
//
// Gathering doubles as the chain's garbage collection: an entry that has
// resolved successfully imposes no constraint on anything that comes
// later, so it is dropped for good (releasing its pooled issue state)
// instead of being re-gathered forever. Failed entries stay — their
// errors must keep propagating to later hard accesses until a write
// displaces them.
func (v *versionState) appendDependencies(acc Access, dst []*chainHandle) []*chainHandle {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.dropSettledWrite()
	if v.lastWrite != nil {
		dst = append(dst, v.lastWrite)
	}
	if acc == Read {
		return dst
	}
	v.dropSettledReaders()
	return append(dst, v.live()...)
}

// dropSettledWrite drops the last write if it resolved successfully,
// releasing its reference. Caller holds v.mu.
func (v *versionState) dropSettledWrite() {
	if lw := v.lastWrite; lw != nil && settledOK(&lw.lco) {
		lw.release()
		v.lastWrite = nil
	}
}

// dropSettledReaders compacts the live readers to the front of the list,
// dropping and releasing every reader that resolved successfully wherever
// it stands. Caller holds v.mu.
func (v *versionState) dropSettledReaders() {
	kept := v.readers[:0]
	for _, r := range v.live() {
		if settledOK(&r.lco) {
			r.release()
			continue
		}
		kept = append(kept, r)
	}
	clear(v.readers[len(kept):])
	v.readers, v.head = kept, 0
	v.compactAt = max(2*len(kept), minCompactReaders)
}

// releaseSettledHead releases the readers at the head of the list that
// resolved successfully, stopping at the first that has not: readers
// mostly settle in issue order, so this finds nearly every settled
// reader at a cost proportional to the number it releases. A failed
// reader stops it too, and stays to propagate its error. Caller holds
// v.mu.
func (v *versionState) releaseSettledHead() {
	for v.head < len(v.readers) && settledOK(&v.readers[v.head].lco) {
		v.readers[v.head].release()
		v.readers[v.head] = nil
		v.head++
	}
	if v.head == len(v.readers) {
		v.readers, v.head = v.readers[:0], 0
	}
}

// recordQuiet marks a write access as complete-and-settled without
// installing a future: the synchronous issue path executes the loop
// before recording, so by the time it records there is nothing left to
// wait for — successors see an empty chain instead of a pre-resolved
// future, and read accesses need not be recorded at all (a finished
// reader imposes no constraint on later writers). This keeps the
// steady-state Run path allocation-free and stops the readers list from
// growing across synchronous invocations.
func (v *versionState) recordQuiet() {
	v.mu.Lock()
	v.dropAll()
	v.mu.Unlock()
}

// dropAll empties the chain, releasing every entry's reference. Caller
// holds v.mu.
func (v *versionState) dropAll() {
	v.lastWrite.release()
	v.lastWrite = nil
	for _, r := range v.live() {
		r.release()
	}
	clear(v.readers)
	v.readers, v.head = v.readers[:0], 0
	v.compactAt = minCompactReaders
}

// record registers the chain future h as the new version according to
// the access mode, releasing the chain references of every entry it
// displaces. A Read record costs amortized O(1) however far issue runs
// ahead of execution: it releases the settled readers at the head of
// the list, and runs a full compaction of settled-successful readers —
// which also catches readers that settled out of issue order — only
// once the live list has doubled since the last one. The reader list of
// a dat that is read every issue but never written thus stays bounded
// by twice the in-flight (plus failed) readers.
func (v *versionState) record(acc Access, h *chainHandle) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if acc != Read {
		v.dropAll()
		v.lastWrite = h
		return
	}
	v.releaseSettledHead()
	switch n := len(v.readers) - v.head; {
	case n >= v.compactAt:
		v.dropSettledReaders()
	case len(v.readers) == cap(v.readers) && v.head >= n:
		// Full, with at least as many released slots in front as live
		// readers: move the live readers down instead of growing. The
		// copy is paid for by the releases that freed those slots.
		copy(v.readers, v.live())
		clear(v.readers[n:])
		v.readers, v.head = v.readers[:n], 0
	}
	v.readers = append(v.readers, h)
}

// fence waits for every outstanding entry — the fence a host-side access
// needs — and returns the first error. Once the wait succeeds it drops
// the entries that settled successfully, as gathering would: they
// constrain nothing, and dropping them now lets their issue units
// recycle instead of staying reachable until the resource's next access
// (a dat only ever read keeps every reader issued ahead of execution).
func (v *versionState) fence() error {
	if err := hpx.WaitAll(v.current()...); err != nil {
		return err
	}
	v.mu.Lock()
	v.dropSettledWrite()
	v.dropSettledReaders()
	v.mu.Unlock()
	return nil
}

// current returns a waiter for everything outstanding.
func (v *versionState) current() []hpx.Waiter {
	v.mu.Lock()
	defer v.mu.Unlock()
	ws := make([]hpx.Waiter, 0, len(v.live())+1)
	if v.lastWrite != nil {
		ws = append(ws, v.lastWrite)
	}
	for _, r := range v.live() {
		ws = append(ws, r)
	}
	return ws
}

// Dat is data on a set (op_decl_dat): dim float64 values per set element,
// stored contiguously (element e occupies data[e*dim : (e+1)*dim]).
//
// The paper's OP2 carries a type string ("float", "double"); this
// reproduction fixes the element type to float64, which is what every
// kernel of the evaluated Airfoil application uses.
type Dat struct {
	name    string
	set     *Set
	dim     int
	data    []float64
	state   versionState
	flush   func() error // resident-storage write-back, see SetFlush
	scatter func() error // host write-back into resident storage, see SetScatter
}

// DeclDat declares data on a set, mirroring op_decl_dat. The initial values
// are copied so the caller's slice stays independent, like OP2's
// op_decl_dat copying into its own storage. Pass nil to zero-initialize.
func DeclDat(set *Set, dim int, values []float64, name string) (*Dat, error) {
	if set == nil {
		return nil, fmt.Errorf("op2: dat %q needs a set", name)
	}
	if dim < 1 {
		return nil, fmt.Errorf("op2: dat %q has non-positive dimension %d", name, dim)
	}
	n := set.size * dim
	if values != nil && len(values) != n {
		return nil, fmt.Errorf("op2: dat %q expects %d values (|%s|·%d), got %d",
			name, n, set.name, dim, len(values))
	}
	d := &Dat{name: name, set: set, dim: dim, data: make([]float64, n)}
	copy(d.data, values)
	return d, nil
}

// MustDeclDat is DeclDat for static declarations that cannot fail.
func MustDeclDat(set *Set, dim int, values []float64, name string) *Dat {
	d, err := DeclDat(set, dim, values, name)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the dat's name.
func (d *Dat) Name() string { return d.name }

// Set returns the set the dat lives on.
func (d *Dat) Set() *Set { return d.set }

// Dim returns the number of values per set element.
func (d *Dat) Dim() int { return d.dim }

// Data returns the raw storage. In dataflow mode callers must Sync first;
// kernels access it through their argument views.
func (d *Dat) Data() []float64 { return d.data }

// Elem returns the slice view of element e.
func (d *Dat) Elem(e int) []float64 { return d.data[e*d.dim : (e+1)*d.dim] }

// Sync waits for every outstanding asynchronous loop touching this dat —
// the host-side future.get() of Fig. 9 (`p_qold = op_par_loop_...` then
// using p_qold) — and then flushes resident storage (see SetFlush) so
// Data observes the authoritative values. It returns the first error.
func (d *Dat) Sync() error {
	if err := d.state.fence(); err != nil {
		return err
	}
	if d.flush != nil {
		return d.flush()
	}
	return nil
}

// SetFlush installs fn as the dat's resident-storage flush: when an
// engine holds the authoritative values elsewhere (the distributed
// runtime's per-rank owned shards), Sync calls fn after all outstanding
// loops resolve so the values are written back into Data before host
// code reads them. Pass nil to clear.
func (d *Dat) SetFlush(fn func() error) { d.flush = fn }

// Rescatter propagates host writes into Data back into resident storage:
// when an engine holds the authoritative values elsewhere (the
// distributed runtime's per-rank owned shards), host edits made after
// the first scatter are otherwise unobserved by later loops. Rescatter
// waits for every outstanding loop on the dat, then pushes Data into the
// shards, making the host array authoritative again for one moment —
// the write-direction mirror of Sync. On shared-memory runtimes (no
// resident storage) it degenerates to the fence alone: Data is always
// authoritative there.
func (d *Dat) Rescatter() error {
	if err := d.state.fence(); err != nil {
		return err
	}
	if d.scatter != nil {
		return d.scatter()
	}
	return nil
}

// SetScatter installs fn as the dat's host write-back: Rescatter calls
// it after outstanding loops resolve so engines can pull the host array
// into their resident storage. Pass nil to clear.
func (d *Dat) SetScatter(fn func() error) { d.scatter = fn }

// Future returns a future that resolves to the dat once every loop
// currently outstanding on it has finished — the dat "returned as a future
// from each kernel function" in Fig. 9. Like Sync it flushes resident
// storage, so the resolved dat's Data is authoritative.
func (d *Dat) Future() *hpx.Future[*Dat] {
	deps := d.state.current()
	flush := d.flush
	return hpx.Dataflow(func() (*Dat, error) {
		if flush != nil {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		return d, nil
	}, deps...)
}

// Snapshot returns a fenced copy of the dat's authoritative values: it
// Syncs (waits every outstanding loop, flushes resident shards into
// Data) and copies — the checkpoint-side fence hook of the
// fault-tolerant runtime. The copy is bitwise: a run restored from it
// continues exactly as the uninterrupted run would have.
func (d *Dat) Snapshot() ([]float64, error) {
	if err := d.Sync(); err != nil {
		return nil, err
	}
	return append([]float64(nil), d.data...), nil
}

// RestoreData overwrites the dat from a snapshot and pushes the values
// into resident storage (Rescatter) — the restore-side mirror of
// Snapshot, valid on fresh and resident-engine runtimes alike.
func (d *Dat) RestoreData(values []float64) error {
	if len(values) != len(d.data) {
		return fmt.Errorf("op2: dat %q restore expects %d values, got %d", d.name, len(d.data), len(values))
	}
	copy(d.data, values)
	return d.Rescatter()
}

func (d *Dat) String() string {
	return fmt.Sprintf("dat(%s on %s, dim %d)", d.name, d.set.name, d.dim)
}

// Global is host-side global data used by loops (op_arg_gbl): read-only
// parameters or reduction targets (Inc/Min/Max). Like a Dat it carries a
// version chain so reductions order correctly in dataflow mode.
type Global struct {
	name  string
	data  []float64
	state versionState
	flush func() error // resident-engine fence, see SetFlush
}

// DeclGlobal declares a global of the given dimension, with optional
// initial values.
func DeclGlobal(dim int, values []float64, name string) (*Global, error) {
	if dim < 1 {
		return nil, fmt.Errorf("op2: global %q has non-positive dimension %d", name, dim)
	}
	if values != nil && len(values) != dim {
		return nil, fmt.Errorf("op2: global %q expects %d values, got %d", name, dim, len(values))
	}
	g := &Global{name: name, data: make([]float64, dim)}
	copy(g.data, values)
	return g, nil
}

// MustDeclGlobal is DeclGlobal for static declarations that cannot fail.
func MustDeclGlobal(dim int, values []float64, name string) *Global {
	g, err := DeclGlobal(dim, values, name)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the global's name.
func (g *Global) Name() string { return g.name }

// Dim returns the number of values.
func (g *Global) Dim() int { return len(g.data) }

// Data returns the raw values. In dataflow mode callers must Sync first.
func (g *Global) Data() []float64 { return g.data }

// Set overwrites the global's values from the host. In dataflow mode call
// Sync first.
func (g *Global) Set(values []float64) error {
	if len(values) != len(g.data) {
		return fmt.Errorf("op2: global %q expects %d values, got %d", g.name, len(g.data), len(values))
	}
	copy(g.data, values)
	return nil
}

// Sync waits for every outstanding asynchronous loop touching this
// global, including loops on an engine that applies reductions outside
// the version chain (see SetFlush).
func (g *Global) Sync() error {
	if err := g.state.fence(); err != nil {
		return err
	}
	if g.flush != nil {
		return g.flush()
	}
	return nil
}

// SetFlush installs fn as the global's engine fence: when loops touching
// this global execute outside the version chain (the distributed
// runtime), Sync and Future wait on fn so the host never reads a
// reduction mid-apply. Pass nil to clear.
func (g *Global) SetFlush(fn func() error) { g.flush = fn }

// Snapshot returns a fenced copy of the global's values: Sync (which
// waits for engine-applied reductions) then copy — the checkpoint-side
// fence hook, mirroring Dat.Snapshot. Restore with Set.
func (g *Global) Snapshot() ([]float64, error) {
	if err := g.Sync(); err != nil {
		return nil, err
	}
	return append([]float64(nil), g.data...), nil
}

// Future returns a future resolving to the global's values after all
// outstanding loops complete — how a reduction result flows to dependent
// loops or host code without a global barrier. Like Sync it waits for
// the engine fence installed with SetFlush.
func (g *Global) Future() *hpx.Future[[]float64] {
	deps := g.state.current()
	flush := g.flush
	return hpx.Dataflow(func() ([]float64, error) {
		if flush != nil {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		return g.data, nil
	}, deps...)
}
