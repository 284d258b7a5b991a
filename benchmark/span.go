package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"op2hpx/op2"
)

// span is one interval the benchmark recorded around a call into a
// layer: name, start, end, the span that caused it and the run it
// belongs to.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int // index into tracer.spans, -1 for a root
	Run        int
}

// tracer keeps the benchmark's own spans in memory until the run ends.
// It is used from the load-generating goroutine only; intervals
// measured on other goroutines (the TCP ranks) are added afterwards
// with their recorded times. A nil tracer records nothing, which is
// how the untraced runs keep tracing off.
type tracer struct {
	spans []span
	stack []int
	run   int
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, t.add(name, time.Now(), time.Time{}))
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Now()
}

// add records a finished interval under the innermost open span and
// returns its index.
func (t *tracer) add(name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of it that
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo.Before(edge) {
				lo = edge
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				edge = hi
			}
		}
		out[i] = s.End.Sub(s.Start) - covered
	}
	return out
}

// subtreeSelf sums the self times of root and everything below it.
func subtreeSelf(spans []span, self []time.Duration, root int) time.Duration {
	total := time.Duration(0)
	for i := range spans {
		for j := i; j >= 0; j = spans[j].Parent {
			if j == root {
				total += self[i]
				break
			}
		}
	}
	return total
}

// traceEvent is one complete event of the Chrome trace_event format;
// ts and dur are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace merges the benchmark's spans (pid 0) with the spans
// the runtime recorded into its TraceRing (pid 1, one lane per rank) on
// one timeline. Load the file at chrome://tracing or ui.perfetto.dev.
func writeChromeTrace(w io.Writer, spans []span, ring []op2.TraceSpan) error {
	if len(spans) == 0 {
		return json.NewEncoder(w).Encode(map[string]any{"traceEvents": []traceEvent{}})
	}
	epoch := spans[0].Start
	self := selfTimes(spans)
	events := make([]traceEvent, 0, len(spans)+len(ring))
	for i, s := range spans {
		events = append(events, traceEvent{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			Ts: us(s.Start.Sub(epoch)), Dur: us(s.End.Sub(s.Start)),
			Args: map[string]any{"id": i, "parent": s.Parent, "run": s.Run, "self_us": us(self[i])},
		})
	}
	for _, s := range ring {
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Phase, Ph: "X",
			Ts: float64(s.Start-epoch.UnixNano()) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: int(s.Rank),
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
