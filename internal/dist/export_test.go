package dist

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
)

// PlanDigest folds every cached loop plan's per-rank slices into one
// FNV-64 digest: the executed runs and the early/late split, the halo
// ids imported per sharded dat, the localized maps and the solo read
// schedule's local indices. Plans are visited by loop name, so the
// digest is independent of map order and pointer values; two engines
// agree on it only if they built the same plans.
func (e *Engine) PlanDigest() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	lps := make([]*loopPlan, 0, len(e.plans))
	for _, lp := range e.plans {
		lps = append(lps, lp)
	}
	slices.SortFunc(lps, func(a, b *loopPlan) int {
		switch {
		case a.name < b.name:
			return -1
		case a.name > b.name:
			return 1
		}
		return 0
	})
	h := fnv.New64a()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v) //nolint:errcheck // hash writes cannot fail
		}
	}
	putIDs := func(ids []int32) {
		put(int64(len(ids)))
		binary.Write(h, binary.LittleEndian, ids) //nolint:errcheck // hash writes cannot fail
	}
	for _, lp := range lps {
		h.Write([]byte(lp.name)) //nolint:errcheck // hash writes cannot fail
		for _, rp := range lp.ranks {
			put(int64(rp.nOwned), int64(rp.nEarly), int64(len(rp.runs)))
			for _, run := range rp.runs {
				put(int64(run.lo), int64(run.hi))
			}
			for _, sd := range lp.readSDs {
				putIDs(rp.imports[sd])
			}
			for _, a := range lp.l.Args {
				if m := a.Map(); m != nil {
					putIDs(rp.maps[m])
				}
			}
			for _, parts := range rp.read.sendTo {
				for _, p := range parts {
					putIDs(p.locals)
				}
			}
			for _, parts := range rp.read.recvFrom {
				for _, p := range parts {
					putIDs(p.locals)
				}
			}
		}
	}
	return h.Sum64()
}
