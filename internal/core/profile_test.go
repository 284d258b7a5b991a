package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestProfilerRecordsLoops(t *testing.T) {
	const n = 2000
	l, _, _ := saxpyLoop(n)
	ex := testExecutor(t, ForkJoin, 2)
	prof := NewProfiler()
	ex.SetProfiler(prof)
	if ex.Profiler() != prof {
		t.Fatal("Profiler accessor broken")
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		if err := ex.Run(l); err != nil {
			t.Fatal(err)
		}
	}
	stats := prof.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats for %d loops, want 1", len(stats))
	}
	s := stats[0]
	if s.Name != "saxpy" || s.Count != runs {
		t.Fatalf("stats = %+v", s)
	}
	if s.Total <= 0 || s.Min <= 0 || s.Max < s.Min || s.Mean() <= 0 {
		t.Fatalf("timing stats inconsistent: %+v", s)
	}
	if s.NColors != 0 {
		t.Fatalf("direct loop has %d colors recorded", s.NColors)
	}
}

func TestProfilerRecordsPlanShape(t *testing.T) {
	l, _ := jacobiSetup(rand.New(rand.NewSource(21)), 5000, 800)
	ex := testExecutor(t, ForkJoin, 2)
	prof := NewProfiler()
	ex.SetProfiler(prof)
	if err := ex.Run(l); err != nil {
		t.Fatal(err)
	}
	stats := prof.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats = %v", stats)
	}
	if stats[0].NColors < 2 || stats[0].NBlocks < 2 {
		t.Fatalf("indirect loop plan shape missing: %+v", stats[0])
	}
}

func TestProfilerSortsByTotal(t *testing.T) {
	p := NewProfiler()
	p.record("cheap", "cells", time.Millisecond, nil)
	p.record("costly", "cells", time.Second, nil)
	stats := p.Stats()
	if stats[0].Name != "costly" {
		t.Fatalf("order = %v, %v", stats[0].Name, stats[1].Name)
	}
}

func TestProfilerReset(t *testing.T) {
	p := NewProfiler()
	p.record("x", "cells", time.Millisecond, nil)
	p.Reset()
	if len(p.Stats()) != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestProfilerRender(t *testing.T) {
	p := NewProfiler()
	p.record("res_calc", "cells", 2*time.Millisecond, nil)
	var b strings.Builder
	p.Render(&b)
	out := b.String()
	for _, want := range []string{"loop", "res_calc", "count", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestProfilerDataflowConcurrentRecording(t *testing.T) {
	// Many async loops recording concurrently must not race (run under
	// -race in CI).
	const n = 256
	cells := MustDeclSet(n, "cells")
	d := MustDeclDat(cells, 1, nil, "d")
	ex := testExecutor(t, Dataflow, 4)
	prof := NewProfiler()
	ex.SetProfiler(prof)
	l := &Loop{
		Name: "touch", Set: cells,
		Args: []Arg{ArgDat(d, IDIdx, nil, RW)},
		Body: rangeOnly(func(lo, hi int, _ []float64) {}),
	}
	const iters = 50
	for i := 0; i < iters; i++ {
		ex.RunAsync(l)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := prof.Stats()[0].Count; got != iters {
		t.Fatalf("recorded %d executions, want %d", got, iters)
	}
}

func TestProfilerStatsDeterministicTieBreak(t *testing.T) {
	// Equal totals must order by name, every time.
	for trial := 0; trial < 5; trial++ {
		p := NewProfiler()
		p.record("zeta", "cells", time.Millisecond, nil)
		p.record("alpha", "cells", time.Millisecond, nil)
		p.record("mid", "cells", time.Millisecond, nil)
		stats := p.Stats()
		if stats[0].Name != "alpha" || stats[1].Name != "mid" || stats[2].Name != "zeta" {
			t.Fatalf("tie-break order = %v %v %v, want alpha mid zeta",
				stats[0].Name, stats[1].Name, stats[2].Name)
		}
	}
}

func TestProfilerPercentiles(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 100; i++ {
		p.record("res_calc", "cells", 15*time.Microsecond, nil)
	}
	s := p.Stats()[0]
	// All samples fall in the (10µs, 25µs] bucket of DurationBuckets;
	// every percentile must interpolate inside it.
	for _, q := range []time.Duration{s.P50, s.P95, s.P99} {
		if q <= 10*time.Microsecond || q > 25*time.Microsecond {
			t.Fatalf("percentile %v outside sample bucket (p50=%v p95=%v p99=%v)", q, s.P50, s.P95, s.P99)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
}

func TestProfilerStringHasPercentileColumns(t *testing.T) {
	p := NewProfiler()
	p.record("adt_calc", "cells", time.Millisecond, nil)
	out := p.String()
	for _, want := range []string{"p50", "p95", "p99", "adt_calc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	if out != p.String() {
		t.Fatal("String() not deterministic across calls")
	}
}
