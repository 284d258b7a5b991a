package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"op2hpx/internal/obs"
)

// Profiler collects per-loop execution statistics, the moral equivalent of
// the intrinsic performance counters HPX exposes (Grubel et al., cited as
// [21] by the paper): invocation counts, total/min/max wall time per loop,
// and plan shape. Attach one to an Executor with
// Executor.SetProfiler; it is safe for concurrent use, including from
// dataflow loops running on multiple goroutines.
type Profiler struct {
	mu    sync.Mutex
	loops map[string]*LoopStats
}

// LoopStats aggregates the executions of one named loop.
type LoopStats struct {
	Name    string
	Count   int
	Total   time.Duration
	Min     time.Duration
	Max     time.Duration
	Set     string
	NColors int // 1 for loops without indirect modifications
	NBlocks int

	// P50/P95/P99 are latency percentiles estimated from a fixed-bucket
	// histogram of the loop's samples (linear interpolation inside the
	// winning bucket, Prometheus histogram_quantile style) — snapshot
	// values filled by Stats.
	P50 time.Duration
	P95 time.Duration
	P99 time.Duration

	hist *obs.Histogram // sample distribution behind the percentiles
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{loops: make(map[string]*LoopStats)}
}

// record adds one execution sample. Fused passes record under their
// group name ("fused(a+b)") with their set's one-color plan; the
// resolved plan is threaded in by the caller, so recording never
// re-consults the plan cache.
func (p *Profiler) record(name, set string, d time.Duration, plan *Plan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.loops[name]
	if !ok {
		st = &LoopStats{Name: name, Min: d, Set: set, hist: obs.NewHistogram(obs.DurationBuckets)}
		p.loops[name] = st
	}
	st.hist.ObserveDuration(d)
	st.Count++
	st.Total += d
	if d < st.Min {
		st.Min = d
	}
	if d > st.Max {
		st.Max = d
	}
	if plan != nil {
		st.NColors = plan.NColors()
		st.NBlocks = plan.NBlocks()
	}
}

// Stats returns a copy of the collected statistics, sorted by
// descending total time with ties broken by ascending name — the order
// is deterministic for any sample set.
func (p *Profiler) Stats() []LoopStats {
	p.mu.Lock()
	out := make([]LoopStats, 0, len(p.loops))
	for _, st := range p.loops {
		c := *st
		c.P50 = histQuantile(st.hist, 0.50)
		c.P95 = histQuantile(st.hist, 0.95)
		c.P99 = histQuantile(st.hist, 0.99)
		out = append(out, c)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// histQuantile converts an interpolated histogram quantile (seconds)
// to a duration; a nil histogram (stats built by hand) reports zero.
func histQuantile(h *obs.Histogram, q float64) time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// Reset clears all statistics.
func (p *Profiler) Reset() {
	p.mu.Lock()
	p.loops = make(map[string]*LoopStats)
	p.mu.Unlock()
}

// Mean returns the mean duration of one loop's executions.
func (s *LoopStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Render writes the profile as an aligned text table. Rows are ordered
// by Stats — descending total, ties broken by name — so the output is
// deterministic.
func (p *Profiler) Render(w io.Writer) {
	stats := p.Stats()
	fmt.Fprintf(w, "%-12s %-8s %7s %12s %12s %12s %12s %12s %12s %12s %8s %8s\n",
		"loop", "set", "count", "total", "mean", "p50", "p95", "p99", "min", "max", "colors", "blocks")
	fmt.Fprintln(w, strings.Repeat("-", 139))
	for _, s := range stats {
		fmt.Fprintf(w, "%-12s %-8s %7d %12v %12v %12v %12v %12v %12v %12v %8d %8d\n",
			s.Name, s.Set, s.Count,
			s.Total.Round(time.Microsecond), s.Mean().Round(time.Microsecond),
			s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
			s.P99.Round(time.Microsecond),
			s.Min.Round(time.Microsecond), s.Max.Round(time.Microsecond),
			s.NColors, s.NBlocks)
	}
}

// String renders the profile table — the deterministic textual form of
// the collected statistics.
func (p *Profiler) String() string {
	var sb strings.Builder
	p.Render(&sb)
	return sb.String()
}

// SetProfiler attaches a profiler to the executor; pass nil to disable.
// Every subsequent loop execution is timed (body only, excluding dataflow
// dependency wait, so the numbers measure work, not latency).
func (ex *Executor) SetProfiler(p *Profiler) { ex.profiler = p }

// Profiler returns the attached profiler, if any.
func (ex *Executor) Profiler() *Profiler { return ex.profiler }
