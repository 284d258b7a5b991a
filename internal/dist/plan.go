package dist

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"op2hpx/internal/core"
)

// ErrInvalid classifies plan-time failures of the distributed engine:
// unsupported access modes, intra-loop aliasing, partitioners missing
// topology information. The public facade maps it onto
// op2.ErrValidation.
var ErrInvalid = errors.New("dist: invalid configuration")

func invalidf(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalid}, a...)...)
}

// setPart is the ownership of one set: every element belongs to exactly
// one rank. Real partitions come from a part.Partitioner; derived
// partitions follow a map into an already-partitioned set (each element
// executes on the rank owning its first map target), which is how
// iteration sets like edges align with the data they increment.
type setPart struct {
	set     *core.Set
	owner   []int32   // global element → owning rank
	owned   [][]int32 // rank → its elements, ascending global id
	local   []int32   // global element → index within its owner's block
	derived bool
	method  string

	// Import-halo directory, shared by every dat on the set: slots are
	// assigned the first time a loop plan imports an element and stay
	// stable afterwards, so halo storage only ever grows.
	haloSlot []map[int32]int32 // per rank: global id → halo slot
	haloIDs  [][]int32         // per rank: halo slot → global id
}

// finish populates the derived ownership tables for a fixed rank count.
func (sp *setPart) finish(ranks int) {
	sp.owned = make([][]int32, ranks)
	sp.haloSlot = make([]map[int32]int32, ranks)
	sp.haloIDs = make([][]int32, ranks)
	for r := range sp.haloSlot {
		sp.haloSlot[r] = map[int32]int32{}
	}
	for e, r := range sp.owner {
		sp.local[e] = int32(len(sp.owned[r]))
		sp.owned[r] = append(sp.owned[r], int32(e))
	}
}

// slotFor returns rank r's halo slot for global element id, assigning a
// new one on first use. Called only while the engine lock is held (plan
// construction); workers consume the precomputed slot numbers.
func (sp *setPart) slotFor(r int, id int32) int32 {
	if s, ok := sp.haloSlot[r][id]; ok {
		return s
	}
	s := int32(len(sp.haloIDs[r]))
	sp.haloSlot[r][id] = s
	sp.haloIDs[r] = append(sp.haloIDs[r], id)
	return s
}

// localFor returns rank r's local index of global element id: its
// position in r's owned block, or the block length plus its halo slot
// (assigned on first use). Every rank-local array of the set — dat
// storage and localized maps alike — uses this numbering. Called only
// while the engine lock is held.
func (sp *setPart) localFor(r int, id int32) int32 {
	if sp.owner[id] == int32(r) {
		return sp.local[id]
	}
	return int32(len(sp.owned[r])) + sp.slotFor(r, id)
}

// nLocal reports how many elements rank r's local numbering holds.
func (sp *setPart) nLocal(r int) int { return len(sp.owned[r]) + len(sp.haloIDs[r]) }

// localDat is a dat in rank-local storage: vals[r] holds rank r's values
// in its local numbering of the dat's set (owned block, then halo slots),
// so a RangeBody indexes it exactly as it would the global array. A
// sharded dat (some loop writes it) keeps its authoritative values in
// the owned blocks — the declaration's global array is stale between
// flushes — and imported copies or, for the targets of redundantly
// executed increments, discarded scratch in its halo slots. A replicated
// dat (only ever read) on a partitioned set gets a local copy that every
// step reading it refreshes from the global array.
type localDat struct {
	d       *core.Dat
	sp      *setPart
	sharded bool
	vals    [][]float64 // grown and touched only by the owning rank's worker
}

// gblLayout mirrors the core scratch layout for reducing global args.
type gblLayout struct {
	size   int
	offs   []int // per arg: scratch offset, -1 for non-reducing args
	init   []float64
	allInc bool // every reducing arg is Inc: zero init, fold by addition
}

// loopPlan is the distributed execution plan of one loop: per rank, the
// elements it executes as runs of local indices, its maps rewritten to
// local indices and the read-halo exchange that makes its reads fresh.
//
// Each rank runs the loop's own RangeBody over rank-local arrays. A loop
// that increments through a map also executes its exec halo on every
// rank: the elements another rank owns that increment a target this rank
// owns. Every owned target therefore takes all its contributions in
// place, in serial plan order, and no increment crosses the wire;
// contributions to halo targets (and the exec halo's global reductions)
// are discarded.
type loopPlan struct {
	l    *core.Loop
	name string
	itsp *setPart

	dats    map[*core.Dat]*localDat // every declared dat; nil: the host array
	sds     []*localDat             // per arg: the sharded dat it accesses, nil otherwise
	readSDs []*localDat             // sharded dats imported through the halo, in arg order
	repl    []*core.Dat             // dats read as replicated (plan invalidated if sharded later)

	gbl             gblLayout
	needElementwise bool  // any Inc global: reduction folds per element in serial order
	foldOrder       []int // serial element order (plan colors/blocks/elements)

	ranks []*rankPlan
}

// execRun is a range [lo, hi) of a rank's local iteration indices the
// body executes in one call.
type execRun struct{ lo, hi int32 }

// growNeed is the local element count a rank's storage of one dat must
// cover before a plan's bodies index it.
type growNeed struct {
	ld *localDat
	n  int
}

type readSendPart struct {
	sd     *localDat
	locals []int32 // owned local indices to gather, ascending global id
}

type readRecvPart struct {
	sd     *localDat
	locals []int32 // halo local indices to scatter into, ascending global id
}

// readSchedule is one rank's read-halo exchange for one posting point:
// which owned values to pack per destination, which messages to expect
// per source, and where to scatter them. A loopPlan holds the solo
// schedule of each rank (what the loop needs when issued on its own); a
// multi-loop step builds union schedules that serve every loop of a
// coalescing group with one exchange (see stepPlan).
type readSchedule struct {
	sendTo   [][]readSendPart // per dst rank; empty = no message
	sendLen  []int            // floats per dst
	recvFrom [][]readRecvPart // per src rank
	recvLen  []int
}

// active reports whether the schedule moves any data on this rank.
func (rs *readSchedule) active() bool {
	for _, n := range rs.sendLen {
		if n > 0 {
			return true
		}
	}
	for _, n := range rs.recvLen {
		if n > 0 {
			return true
		}
	}
	return false
}

// rankPlan is the per-rank slice of a loopPlan.
type rankPlan struct {
	// nOwned is the rank's owned iteration elements: local indices
	// [0, nOwned). Higher indices are its exec halo.
	nOwned int
	// runs lists the executed local indices in execution order: the
	// first nEarly runs need no halo value and execute while the
	// exchange is in flight; the rest run after it resolves.
	runs   []execRun
	nEarly int

	maps    map[*core.Map][]int32 // localized maps (ranks this process hosts)
	imports map[*localDat][]int32 // halo ids read per sharded dat, ascending
	need    []growNeed            // storage the plan's bound arrays index
	read    *readSchedule         // the loop's own read-halo exchange

	// bound caches the body bound to this rank's arrays; only this
	// rank's worker touches it.
	bound boundBody
}

// boundBody is a loop's RangeBody bound to one rank's arrays, current
// while the loop, its generation and the rank's storage epoch match.
type boundBody struct {
	loop  *core.Loop
	gen   uint64
	epoch uint64
	body  core.RangeBody
}

// loopKey identifies a distributed plan structurally: the iteration set
// and the (dat/global, map, index, access) shape of every argument.
// Loops declared inline each timestep therefore share one cached plan
// instead of growing the cache without bound; the kernel is not part of
// the key (it travels with each task).
func loopKey(l *core.Loop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%p", l.Set)
	for _, a := range l.Args {
		if a.IsGlobal() {
			fmt.Fprintf(&b, "|g%p:%d", a.Global(), a.Acc())
		} else {
			fmt.Fprintf(&b, "|d%p:%p:%d:%d", a.Dat(), a.Map(), a.Idx(), a.Acc())
		}
	}
	return b.String()
}

// validateDistLoop rejects loops the distributed engine cannot replay
// with serial semantics: unsupported indirect access modes, and
// intra-loop aliasing between increments, direct writes and
// halo-snapshotted reads.
func validateDistLoop(l *core.Loop) error {
	if err := l.Validate(); err != nil {
		return err
	}
	for _, a := range l.Args {
		if a.IsGlobal() || a.Map() == nil {
			continue
		}
		switch a.Acc() {
		case core.Read, core.Inc:
		default:
			return invalidf("loop %q: indirect %v access is not supported distributed (owner-compute needs Read or Inc through maps)", l.Name, a.Acc())
		}
	}
	// Intra-loop aliasing the engine cannot replay: serial applies
	// increments and direct writes immediately, so a later element's
	// read can observe them; a rank snapshots its read-halo before the
	// loop runs and sends halo targets' increments nowhere. A loop that
	// both writes a dat (inc or direct write) and reads it through a map
	// (or reads an incremented dat at all) would silently diverge from
	// the serial backend, so reject it instead.
	incd := map[*core.Dat]bool{}
	directWrite := map[*core.Dat]bool{}
	indirectRead := map[*core.Dat]bool{}
	for _, a := range l.Args {
		if a.IsGlobal() {
			continue
		}
		switch {
		case a.Map() != nil && a.Acc() == core.Inc:
			incd[a.Dat()] = true
		case a.Map() == nil && a.Acc() != core.Read:
			directWrite[a.Dat()] = true
		case a.Map() != nil && a.Acc() == core.Read:
			indirectRead[a.Dat()] = true
		}
	}
	for _, a := range l.Args {
		if !a.IsGlobal() && a.Acc() != core.Inc && incd[a.Dat()] {
			return invalidf("loop %q: dat %q is both read and incremented; a rank's halo copies would not observe other ranks' increments as the serial backend's reads do", l.Name, a.Dat().Name())
		}
	}
	for d := range directWrite {
		if indirectRead[d] {
			return invalidf("loop %q: dat %q is written directly and read through a map; the distributed halo snapshot would not observe the writes as the serial backend's reads do", l.Name, d.Name())
		}
	}
	return nil
}

// prepareLoopLocked establishes the ownership and sharding state a
// validated loop needs: target sets of sharded indirect accesses
// partitioned, the iteration set partitioned (derived through a map when
// possible), and every written dat moved to owned+halo storage. It is
// idempotent; a Step calls it for every member loop before any member's
// plan is built, so a dat a later loop writes is already sharded when an
// earlier loop's plan is derived.
func (e *Engine) prepareLoopLocked(l *core.Loop) error {
	// Ownership first: target sets of indirect accesses that are (or are
	// about to be) sharded must be partitioned before the iteration set
	// can derive from them.
	for _, a := range l.Args {
		if a.IsGlobal() || a.Map() == nil {
			continue
		}
		if a.Acc() == core.Inc || e.dats[a.Dat()] != nil {
			if _, err := e.ensureRealPartLocked(a.Dat().Set()); err != nil {
				return err
			}
		}
	}
	if e.sets[l.Set] == nil {
		// Derive the iteration set's ownership from the first indirect
		// arg whose target is partitioned (owner of map slot 0), so
		// elements execute where their data lives; otherwise partition
		// it for real.
		derived := false
		for _, a := range l.Args {
			if a.IsGlobal() || a.Map() == nil {
				continue
			}
			if tsp := e.sets[a.Dat().Set()]; tsp != nil {
				e.derivePartLocked(l.Set, a.Map(), tsp)
				derived = true
				break
			}
		}
		if !derived {
			if _, err := e.ensureRealPartLocked(l.Set); err != nil {
				return err
			}
		}
	}
	// Shard every dat the loop writes; everything else read-only stays
	// replicated until some later loop writes it.
	for _, a := range l.Args {
		if a.IsGlobal() || a.Acc() == core.Read {
			continue
		}
		if _, err := e.ensureShardedLocked(a.Dat()); err != nil {
			return err
		}
	}
	return nil
}

// planLocked returns the cached distributed plan for l, building it (and
// any ownership, sharding and halo state it needs) on first use. The
// engine lock must be held.
func (e *Engine) planLocked(l *core.Loop) (*loopPlan, error) {
	key := loopKey(l)
	if lp, ok := e.plans[key]; ok {
		return lp, nil
	}
	if err := validateDistLoop(l); err != nil {
		return nil, err
	}
	if err := e.prepareLoopLocked(l); err != nil {
		return nil, err
	}
	e.builds++

	lp := &loopPlan{
		l: l, name: l.Name, itsp: e.sets[l.Set],
		dats: map[*core.Dat]*localDat{},
		sds:  make([]*localDat, len(l.Args)),
		gbl:  gblLayout{offs: make([]int, len(l.Args)), allInc: true},
	}
	var incArgs []int
	seenRead := map[*localDat]bool{}
	for i, a := range l.Args {
		lp.gbl.offs[i] = -1
		if a.IsGlobal() {
			g := a.Global()
			e.fenceGlobalLocked(g)
			if a.Acc() == core.Read {
				continue
			}
			lp.gbl.offs[i] = lp.gbl.size
			lp.gbl.size += g.Dim()
			for k := 0; k < g.Dim(); k++ {
				lp.gbl.init = append(lp.gbl.init, core.ReduceInit(a.Acc()))
			}
			if a.Acc() == core.Inc {
				lp.needElementwise = true
			} else {
				lp.gbl.allInc = false
			}
			continue
		}
		d := a.Dat()
		ld := e.dats[d]
		if ld == nil {
			if _, seen := lp.dats[d]; !seen {
				lp.repl = append(lp.repl, d)
				e.fenceReplicatedLocked(d)
			}
			ld = e.copyLocked(d)
		} else {
			lp.sds[i] = ld
		}
		lp.dats[d] = ld
		if a.Map() != nil && a.Acc() == core.Inc {
			incArgs = append(incArgs, i)
		}
	}
	// Sharded dats that can need imports: indirect reads, and direct
	// reads of exec-halo elements (which only increment loops have).
	for i, a := range l.Args {
		sd := lp.sds[i]
		if sd == nil || seenRead[sd] {
			continue
		}
		direct := a.Map() == nil && a.Acc() != core.Write && len(incArgs) > 0
		if direct || (a.Map() != nil && a.Acc() == core.Read) {
			seenRead[sd] = true
			lp.readSDs = append(lp.readSDs, sd)
		}
	}

	plan, err := core.LoopPlan(l, e.blockSize)
	if err != nil {
		return nil, err
	}
	lp.foldOrder = plan.ElementOrder()

	// Every element executes on its owner; an increment loop's element
	// also executes on every rank owning one of its increment targets.
	execs := make([][]int32, e.ranks)
	for _, el := range lp.foldOrder {
		o := int(lp.itsp.owner[el])
		execs[o] = append(execs[o], int32(el))
		for _, i := range incArgs {
			a := l.Args[i]
			q := int(lp.sds[i].sp.owner[a.Map().At(el, a.Idx())])
			if q != o && (len(execs[q]) == 0 || execs[q][len(execs[q])-1] != int32(el)) {
				execs[q] = append(execs[q], int32(el))
			}
		}
	}
	lp.ranks = make([]*rankPlan, e.ranks)
	for r := range lp.ranks {
		lp.ranks[r] = e.buildRankLocked(lp, r, execs[r], incArgs)
	}
	scheds := e.buildReadSchedules(lp.readSDs, func(r int, sd *localDat) []int32 {
		return lp.ranks[r].imports[sd]
	})
	for r, rp := range lp.ranks {
		rp.read = scheds[r]
	}
	e.plans[key] = lp
	return lp, nil
}

// buildRankLocked derives rank r's slice of a loop plan from the
// elements it executes (in serial plan order): their local indices, the
// halo values they read, the split into runs before and after the halo
// gate, and the localized maps.
//
// An element reading a halo value runs after the gate. In an increment
// loop that reorders contributions, so an element also runs after the
// gate once any owned target it increments has a contributor there —
// every owned target then takes its contributions before the gate
// followed by those after it, each group in serial order, which is the
// serial order itself.
func (e *Engine) buildRankLocked(lp *loopPlan, r int, exec []int32, incArgs []int) *rankPlan {
	l, itsp := lp.l, lp.itsp
	rp := &rankPlan{nOwned: len(itsp.owned[r]), imports: map[*localDat][]int32{}}
	needs := map[*localDat]map[int32]bool{}
	tainted := map[*localDat][]bool{}
	for _, i := range incArgs {
		sd := lp.sds[i]
		if tainted[sd] == nil {
			tainted[sd] = make([]bool, len(sd.sp.owned[r]))
		}
	}
	var early, late []int32
	var targets []*bool // the current element's owned increment targets
	for _, el := range exec {
		li := itsp.localFor(r, el)
		halo := false
		for i, a := range l.Args {
			sd := lp.sds[i]
			if sd == nil {
				continue
			}
			id := el
			switch {
			case a.Map() == nil && a.Acc() != core.Write:
			case a.Map() != nil && a.Acc() == core.Read:
				id = int32(a.Map().At(int(el), a.Idx()))
			default:
				continue
			}
			if sd.sp.owner[id] == int32(r) {
				continue
			}
			halo = true
			if needs[sd] == nil {
				needs[sd] = map[int32]bool{}
			}
			needs[sd][id] = true
		}
		after := halo
		targets = targets[:0]
		for _, i := range incArgs {
			a, sd := l.Args[i], lp.sds[i]
			if t := int32(a.Map().At(int(el), a.Idx())); sd.sp.owner[t] == int32(r) {
				mark := &tainted[sd][sd.sp.local[t]]
				after = after || *mark
				targets = append(targets, mark)
			}
		}
		if after {
			for _, mark := range targets {
				*mark = true
			}
			late = append(late, li)
		} else {
			early = append(early, li)
		}
	}
	for sd, set := range needs {
		ids := make([]int32, 0, len(set))
		for id := range set {
			ids = append(ids, id)
			sd.sp.localFor(r, id) // every rank's recv slots, hosted or not
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		rp.imports[sd] = ids
	}
	rp.runs = e.runsOf(early, rp.nOwned)
	rp.nEarly = len(rp.runs)
	rp.runs = append(rp.runs, e.runsOf(late, rp.nOwned)...)

	if e.local < 0 || e.local == r {
		rp.maps = map[*core.Map][]int32{}
		n := itsp.nLocal(r)
		for _, a := range l.Args {
			m := a.Map()
			if m == nil || rp.maps[m] != nil {
				continue
			}
			tsp := e.sets[m.To()]
			dim := m.Dim()
			lm := make([]int32, n*dim)
			for _, el := range exec {
				li := int(itsp.localFor(r, el))
				for k := 0; k < dim; k++ {
					t := int32(m.At(int(el), k))
					if tsp != nil {
						t = tsp.localFor(r, t)
					}
					lm[li*dim+k] = t
				}
			}
			rp.maps[m] = lm
		}
	}
	for _, ld := range lp.dats {
		if ld != nil {
			rp.need = append(rp.need, growNeed{ld: ld, n: ld.sp.nLocal(r)})
		}
	}
	return rp
}

// runsOf groups the local indices idx, in order, into maximal runs of
// consecutive indices that stay on one side of the owned/halo boundary
// and span at most one block.
func (e *Engine) runsOf(idx []int32, nOwned int) []execRun {
	var runs []execRun
	for _, li := range idx {
		if k := len(runs) - 1; k >= 0 {
			last := &runs[k]
			if li == last.hi && li != int32(nOwned) && int(last.hi-last.lo) < e.blockSize {
				last.hi++
				continue
			}
		}
		runs = append(runs, execRun{lo: li, hi: li + 1})
	}
	return runs
}

// buildReadSchedules derives, for every rank, the exchange that delivers
// the given halo ids of the given dats: which owned values each rank
// packs per destination and which messages it expects per source, both
// sides grouped by owning rank in ascending global id — the same
// canonical order everywhere, so a message is one frame-sequence tag
// (see worker.checkFrame) followed by raw values with no per-value
// headers. needIDs(r, sd) returns the ascending halo ids rank r must
// import for sd; dats are visited in list order, which fixes the layout
// of multi-dat messages.
func (e *Engine) buildReadSchedules(dats []*localDat, needIDs func(r int, sd *localDat) []int32) []*readSchedule {
	R := e.ranks
	scheds := make([]*readSchedule, R)
	for r := range scheds {
		scheds[r] = &readSchedule{
			sendTo:   make([][]readSendPart, R),
			sendLen:  make([]int, R),
			recvFrom: make([][]readRecvPart, R),
			recvLen:  make([]int, R),
		}
	}
	for r := 0; r < R; r++ {
		for _, sd := range dats {
			sp := sd.sp
			ids := needIDs(r, sd)
			if len(ids) == 0 {
				continue
			}
			// Group by owner, preserving ascending id within each group.
			for s := 0; s < R; s++ {
				var group []int32
				for _, id := range ids {
					if int(sp.owner[id]) == s {
						group = append(group, id)
					}
				}
				if len(group) == 0 {
					continue
				}
				dst := make([]int32, len(group))
				src := make([]int32, len(group))
				for i, id := range group {
					dst[i] = sp.localFor(r, id)
					src[i] = sp.local[id]
				}
				scheds[r].recvFrom[s] = append(scheds[r].recvFrom[s], readRecvPart{sd: sd, locals: dst})
				scheds[r].recvLen[s] += len(group) * sd.d.Dim()
				scheds[s].sendTo[r] = append(scheds[s].sendTo[r], readSendPart{sd: sd, locals: src})
				scheds[s].sendLen[r] += len(group) * sd.d.Dim()
			}
		}
	}
	return scheds
}
