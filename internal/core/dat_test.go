package core

import (
	"errors"
	"math/bits"
	"testing"
)

// testReader returns a pending chain handle holding the one reference a
// version-chain record owns, as an issued loop's chain future does.
func testReader() *chainHandle {
	is := newIssueState(&issuePool{}, 1)
	is.refs.Store(1)
	return &is.members[0].chain
}

func released(h *chainHandle) bool { return h.is.refs.Load() == 0 }

// TestVersionChainReadRecordAmortized pins the cost of a Read record on a
// resource that is read every issue but never written while issue runs
// far ahead of execution: k reads recorded behind a pending head cost
// O(log k) full compactions, not one scan per read.
func TestVersionChainReadRecordAmortized(t *testing.T) {
	var v versionState
	const k = 4096
	compactions := 0
	for i := 0; i < k; i++ {
		before := v.compactAt
		v.record(Read, testReader())
		if v.compactAt != before {
			compactions++
		}
	}
	if got := len(v.live()); got != k {
		t.Fatalf("%d live readers, want %d", got, k)
	}
	if limit := bits.Len(k) + 1; compactions > limit {
		t.Fatalf("%d full compactions for %d pending reads, want at most %d", compactions, k, limit)
	}
}

// TestVersionChainReleasesSettledPrefix checks that readers which settled
// at the head of the list are released by the next Read record, without
// waiting for a full compaction, and that a failed reader is kept to
// propagate its error to a later write.
func TestVersionChainReleasesSettledPrefix(t *testing.T) {
	var v versionState
	v.record(Read, testReader()) // the first record compacts the empty list
	rs := []*chainHandle{v.live()[0]}
	for i := 0; i < 4; i++ {
		h := testReader()
		rs = append(rs, h)
		v.record(Read, h)
	}
	for _, h := range rs[:3] {
		h.lco.Resolve(nil)
	}
	v.record(Read, testReader())
	for i, h := range rs[:3] {
		if !released(h) {
			t.Fatalf("settled reader %d not released by the next Read record", i)
		}
	}
	if got := len(v.live()); got != 3 {
		t.Fatalf("%d live readers after releasing the prefix, want 3", got)
	}

	boom := errors.New("boom")
	rs[3].lco.Resolve(boom)
	rs[4].lco.Resolve(nil)
	v.record(Read, testReader())
	if released(rs[3]) {
		t.Fatal("a failed reader was released")
	}
	var failed bool
	for _, h := range v.appendDependencies(RW, nil) {
		if h == rs[3] {
			failed = true
		}
		if h == rs[4] {
			t.Fatal("a write gathered a reader that settled successfully")
		}
	}
	if !failed {
		t.Fatal("a write no longer depends on the failed reader")
	}
}

// TestVersionChainSlidingWindowReusesSlots runs the pipelined steady
// state — a fixed number of readers in flight, the oldest settling as
// each new one is recorded — and checks that the list reuses the slots
// it releases at the head instead of growing with every read.
func TestVersionChainSlidingWindowReusesSlots(t *testing.T) {
	var v versionState
	const window = 6
	var inflight []*chainHandle
	for i := 0; i < 1000; i++ {
		if len(inflight) == window {
			inflight[0].lco.Resolve(nil)
			inflight = inflight[1:]
		}
		h := testReader()
		inflight = append(inflight, h)
		v.record(Read, h)
		if got := len(v.live()); got != len(inflight) {
			t.Fatalf("read %d: %d live readers, want %d", i, got, len(inflight))
		}
	}
	if c := cap(v.readers); c > 4*window {
		t.Fatalf("reader list grew to capacity %d for %d readers in flight", c, window)
	}
}
