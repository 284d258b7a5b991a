package dist

import (
	"sort"
	"strings"

	"op2hpx/internal/core"
)

// stepPlan is the distributed execution plan of one Step: the member
// loops' plans in program order plus the cross-loop schedules the step's
// dataflow DAG makes legal —
//
//   - coalesced read-halo exchanges: consecutive loops importing the
//     same dat's halo with no intervening write share one exchange,
//     posted by the first importer (the group leader) and sized to the
//     union of the group's needs, and
//   - hoisted posting: a leader's exchange posts as soon as the last
//     earlier writer of its dats has run, so the messages travel while
//     the loops in between compute.
//
// Single loops are one-loop steps: their leader schedule is the loop's
// own, which is exactly the loop-at-a-time behaviour.
type stepPlan struct {
	key   string
	name  string
	loops []*loopPlan // per occurrence; the same plan may repeat
	repl  []*core.Dat // union of replicated-read dats (per-dat invalidation)

	// Per-global gating (see Engine.gateLocked): a submission of this
	// plan waits only for the submissions whose driver-side folds it can
	// actually race — the last reducer of each global it reads, and, when
	// it reduces, its own submission before last (alternate submissions
	// use alternate per-rank reduction buffers). Steps over disjoint
	// globals therefore pipeline freely instead of gating on the engine
	// tail.
	gblReads   []*core.Global // globals any member reads, deduped
	gblReduces []*core.Global // globals any member reduces, deduped
	subs       uint64         // submissions so far; parity picks the buffer set (engine lock)
	lastSub    [2]gateRef     // last reducing submission per buffer set (engine lock)

	// hoistAt[o] is the occurrence at whose START occurrence o's leader
	// read-halo exchange posts: o itself when the exchange cannot move
	// (or o leads nothing), or the earliest occurrence by which every
	// dat of the union has its final owned values — after the last
	// writer's execution. hoisted[h] lists the leaders L > h whose
	// exchange posts at the start of occurrence h, in ascending L, so
	// every rank posts the same per-pair message sequence. Hoisting
	// moves posting only: the leader still waits (and scatters) at its
	// own occurrence, and the message count is untouched — a union
	// schedule moves as one message per pair, pinned at the max
	// readiness of its dats.
	hoistAt []int
	hoisted [][]int

	ranks []*stepRank
}

// stepRank is the per-rank slice of a stepPlan.
type stepRank struct {
	// readPost[o] is the read-halo exchange occurrence o posts on this
	// rank: its own solo schedule for a one-loop step, the group union
	// for a coalescing leader, nil for followers (their halo is fresh by
	// the time they run — the worker executes occurrences in order) and
	// for occurrences with nothing to import.
	readPost []*readSchedule
	// grow is the storage the step's bound arrays index (the per-dat max
	// of the member loops' needs); refresh lists the replicated copies
	// the step reads, with the global id of each local index.
	grow    []growNeed
	refresh []copyRefresh
	// redBuf[p][o] is occurrence o's reduction scratch in buffer set p
	// (the submission's parity), lazily sized and reused by every other
	// invocation. Reuse is race-free because a reducing step gates on
	// the future of the submission that last used its set, which
	// resolves only after the driver folded that invocation's buffers.
	redBuf [2][][]float64
	// redOut[p] is the per-occurrence buffer list a worker reports to
	// the driver, reused under the same gating.
	redOut [2][][]float64
}

// copyRefresh is one replicated copy a step refreshes on one rank: local
// index l takes the global array's element ids[l].
type copyRefresh struct {
	ld  *localDat
	ids []int32
}

// stepKey identifies a step plan structurally: the concatenated
// structural keys of its loops in order. Steps rebuilt inline each
// timestep therefore share one cached plan.
func stepKey(loops []*core.Loop) string {
	var b strings.Builder
	for i, l := range loops {
		if i > 0 {
			b.WriteString("||")
		}
		b.WriteString(loopKey(l))
	}
	return b.String()
}

// StepHandle pins a compiled distributed step plan to its declaring
// Step: the structural key is computed once and the plan pointer is
// revalidated per submission with one map lookup, so steady-state issue
// skips the per-invocation key construction and re-planning that
// RunStepAsync pays for anonymous loop lists. If re-sharding a
// replicated dat invalidated the plan, the next submission rebuilds it
// transparently.
type StepHandle struct {
	name  string
	key   string
	loops []*core.Loop
	sp    *stepPlan
}

// CompileStep builds (or fetches) the distributed plan for the step and
// returns a handle that pins it for repeated submission.
func (e *Engine) CompileStep(name string, loops []*core.Loop) (*StepHandle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, invalidf("engine is closed")
	}
	sp, err := e.stepPlanLocked(name, loops)
	if err != nil {
		return nil, err
	}
	return &StepHandle{
		name:  name,
		key:   stepKey(loops),
		loops: append([]*core.Loop(nil), loops...),
		sp:    sp,
	}, nil
}

// stepPlanLocked returns the cached distributed plan for the step,
// building it on first use. The engine lock must be held.
func (e *Engine) stepPlanLocked(name string, loops []*core.Loop) (*stepPlan, error) {
	if len(loops) == 0 {
		return nil, invalidf("step %q has no loops", name)
	}
	key := stepKey(loops)
	if sp, ok := e.steps[key]; ok {
		return sp, nil
	}
	// Validate every loop before mutating any ownership state.
	for _, l := range loops {
		if err := validateDistLoop(l); err != nil {
			return nil, err
		}
	}
	// Reductions fold when the whole step has completed, so a loop that
	// reads a global an earlier loop of the same step reduces would see
	// the stale value — unlike the shared-memory dataflow backend, where
	// the version chain orders the fold before the read. Reject instead
	// of silently diverging; the host can split the step at the read.
	reduced := map[*core.Global]bool{}
	for _, l := range loops {
		for _, a := range l.Args {
			if !a.IsGlobal() {
				continue
			}
			if a.Acc() == core.Read {
				if reduced[a.Global()] {
					return nil, invalidf("step %q: loop %q reads global %q which an earlier loop of the step reduces; distributed reductions fold at step end, so split the step at the read", name, l.Name, a.Global().Name())
				}
			} else {
				reduced[a.Global()] = true
			}
		}
	}
	// Sharding pre-pass over the whole step: a dat any member writes
	// must be in owned+halo storage before any member's plan is built,
	// or an earlier loop's plan would read the (soon stale) replicated
	// array.
	for _, l := range loops {
		if err := e.prepareLoopLocked(l); err != nil {
			return nil, err
		}
	}
	lps := make([]*loopPlan, len(loops))
	for i, l := range loops {
		lp, err := e.planLocked(l)
		if err != nil {
			return nil, err
		}
		lps[i] = lp
	}
	sp := e.buildStepLocked(key, name, lps)
	e.reserveLocked(sp)
	e.steps[key] = sp
	return sp, nil
}

// writesDat reports whether lp invalidates sd's exchanged halo values:
// any non-read access (a direct write, or an increment, which also
// leaves discarded contributions in halo slots).
func writesDat(lp *loopPlan, sd *localDat) bool {
	for i, a := range lp.l.Args {
		if lp.sds[i] == sd && a.Acc() != core.Read {
			return true
		}
	}
	return false
}

// buildStepLocked derives the step's cross-loop schedules from the
// per-loop plans: coalescing groups and post points of the read
// exchanges, and each rank's storage upkeep.
func (e *Engine) buildStepLocked(key, name string, lps []*loopPlan) *stepPlan {
	n := len(lps)
	sp := &stepPlan{key: key, name: name, loops: lps}
	seenRepl := map[*core.Dat]bool{}
	seenRead := map[*core.Global]bool{}
	seenRed := map[*core.Global]bool{}
	for _, lp := range lps {
		for _, a := range lp.l.Args {
			if !a.IsGlobal() {
				continue
			}
			seen, list := seenRed, &sp.gblReduces
			if a.Acc() == core.Read {
				seen, list = seenRead, &sp.gblReads
			}
			if g := a.Global(); !seen[g] {
				seen[g] = true
				*list = append(*list, g)
			}
		}
		for _, d := range lp.repl {
			if !seenRepl[d] {
				seenRepl[d] = true
				sp.repl = append(sp.repl, d)
			}
		}
	}

	// Coalescing groups: walk the occurrences; the first importer of a
	// dat's halo after a write (or ever) leads a group that every later
	// importer joins until the next write to the dat.
	cur := map[*localDat]int{}                // dat → open group's leader occurrence
	ledDats := make([][]*localDat, n)         // leader occurrence → dats it posts, in first-use order
	members := make([]map[*localDat][]int, n) // leader occurrence → dat → member occurrences
	for o, lp := range lps {
		for _, sd := range lp.readSDs {
			L, open := cur[sd]
			if !open {
				L = o
				cur[sd] = o
				if members[L] == nil {
					members[L] = map[*localDat][]int{}
				}
				ledDats[L] = append(ledDats[L], sd)
			}
			members[L][sd] = append(members[L][sd], o)
		}
		for sd := range cur {
			if writesDat(lp, sd) {
				delete(cur, sd)
			}
		}
	}

	sp.ranks = make([]*stepRank, e.ranks)
	for r := range sp.ranks {
		sr := &stepRank{
			readPost: make([]*readSchedule, n),
			redBuf:   [2][][]float64{make([][]float64, n), make([][]float64, n)},
			redOut:   [2][][]float64{make([][]float64, n), make([][]float64, n)},
		}
		at := map[*localDat]int{}
		for _, lp := range lps {
			for _, g := range lp.ranks[r].need {
				if i, ok := at[g.ld]; ok {
					sr.grow[i].n = max(sr.grow[i].n, g.n)
					continue
				}
				at[g.ld] = len(sr.grow)
				sr.grow = append(sr.grow, g)
			}
		}
		for _, g := range sr.grow {
			if g.ld.sharded {
				continue
			}
			ids := make([]int32, g.n)
			owned := g.ld.sp.owned[r]
			copy(ids, owned)
			copy(ids[len(owned):], g.ld.sp.haloIDs[r])
			sr.refresh = append(sr.refresh, copyRefresh{ld: g.ld, ids: ids})
		}
		sp.ranks[r] = sr
	}
	for L, dats := range ledDats {
		if len(dats) == 0 {
			continue
		}
		var scheds []*readSchedule
		if n == 1 {
			// One-loop step: the loop's own schedule is the union.
			scheds = make([]*readSchedule, e.ranks)
			for r := range scheds {
				scheds[r] = lps[0].ranks[r].read
			}
		} else {
			scheds = e.buildReadSchedules(dats, func(r int, sd *localDat) []int32 {
				return unionHaloIDs(lps, members[L][sd], r, sd)
			})
		}
		for r := range sp.ranks {
			if scheds[r].active() {
				sp.ranks[r].readPost[L] = scheds[r]
			}
		}
	}
	sp.buildHoists(ledDats)
	return sp
}

// pipelineDepth is how many submissions' worth of one rank's messages
// can be in flight at once. A rank cannot finish a step before its peers
// have posted that step's messages to it, so with exchanges running both
// ways — as a mesh halo's do — a sender runs at most one step ahead of
// the receiver consuming its messages: two steps' worth. The third
// covers the lag of a buffer's return behind its consumption (a TCP
// writer puts a frame back after the peer may already have read it),
// and reduction messages, whose driver fold may trail its worker by the
// two submissions the double-buffered reduction scratch allows.
const pipelineDepth = 3

// reserveLocked pre-fills the pools a step's traffic draws from —
// pipelineDepth times the buffers one submission uses — so the plan's
// first step already finds every buffer pooled. Pool r serves rank r's
// halo sends; a process hosting one rank (SPMD) also pools its inbound
// halo messages and reduction messages per source, and a transport that
// frames payloads (FrameReserver) its outbound frames.
func (e *Engine) reserveLocked(sp *stepPlan) {
	R := e.ranks
	bufs := make([][]int, R) // per pool: the buffer sizes of one submission
	var frames []int         // outbound frame payloads of the hosted rank, in floats
	for o, lp := range sp.loops {
		for r := 0; r < R; r++ {
			if e.local >= 0 && r != e.local {
				continue
			}
			if sched := sp.ranks[r].readPost[o]; sched != nil {
				for peer := 0; peer < R; peer++ {
					if n := sched.sendLen[peer]; n > 0 {
						bufs[r] = append(bufs[r], n+1)
						frames = append(frames, n+1)
					}
					if n := sched.recvLen[peer]; n > 0 && e.local >= 0 {
						bufs[peer] = append(bufs[peer], n+1)
					}
				}
			}
			if e.local < 0 || lp.gbl.size == 0 {
				continue
			}
			// reduceSPMD: partials travel to rank 0, the result back.
			if r != 0 {
				frames = append(frames, lp.partialLen(r))
				bufs[0] = append(bufs[0], lp.gbl.size)
				continue
			}
			for peer := 1; peer < R; peer++ {
				bufs[peer] = append(bufs[peer], lp.partialLen(peer))
				frames = append(frames, lp.gbl.size)
			}
		}
	}
	for r, sizes := range bufs {
		reserveSizes(sizes, func(n, size int) { e.bufs[r].Reserve(n, size) })
	}
	if fr, ok := e.tr.inner.(FrameReserver); ok {
		reserveSizes(frames, fr.ReserveFrames)
	}
}

// reserveSizes reserves pipelineDepth buffers per entry of sizes: at
// every size threshold, as many buffers at least that large as entries
// need, so any mix of them in flight at once fits.
func reserveSizes(sizes []int, reserve func(n, size int)) {
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	for i, size := range sizes {
		reserve(pipelineDepth*(i+1), size)
	}
}

// buildHoists computes each leader's exchange post point: the earliest
// occurrence by which every dat of its union schedule holds final owned
// values on every rank, i.e. right after the last earlier occurrence
// writing one of them (increments included: they complete in place
// within their occurrence). The post point is the max over the union's
// dats — the whole coalesced message moves together, so the message
// count (and the per-pair FIFO order, which every rank derives from this
// same plan) is unchanged; only the overlap window grows.
func (sp *stepPlan) buildHoists(ledDats [][]*localDat) {
	n := len(sp.loops)
	sp.hoistAt = make([]int, n)
	sp.hoisted = make([][]int, n)
	for o := range sp.hoistAt {
		sp.hoistAt[o] = o
	}
	for L, dats := range ledDats {
		if len(dats) == 0 {
			continue
		}
		h := 0
		for _, sd := range dats {
			for j := 0; j < L; j++ {
				if writesDat(sp.loops[j], sd) && j+1 > h {
					h = j + 1
				}
			}
		}
		if h < L {
			sp.hoistAt[L] = h
			sp.hoisted[h] = append(sp.hoisted[h], L)
		}
	}
}

// unionHaloIDs merges the ascending halo-id needs of the given
// occurrences for one dat on one rank.
func unionHaloIDs(lps []*loopPlan, occs []int, r int, sd *localDat) []int32 {
	if len(occs) == 1 {
		return lps[occs[0]].ranks[r].imports[sd]
	}
	need := map[int32]bool{}
	var ids []int32
	for _, o := range occs {
		for _, id := range lps[o].ranks[r].imports[sd] {
			if !need[id] {
				need[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
