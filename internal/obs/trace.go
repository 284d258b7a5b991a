package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one recorded execution phase: a named operation (usually a
// loop or step) in a phase (issue, hoist, interior, halo, boundary,
// retire, exec, fused, ...) on a rank, with wall-clock start
// and duration. Spans are plain values — recording one copies string
// headers and integers, never allocating.
type Span struct {
	Name  string
	Phase string
	Rank  int32
	Start int64 // unix nanoseconds
	Dur   int64 // nanoseconds
}

// TraceRing records spans into a fixed-capacity ring: once full, new
// spans overwrite the oldest (Dropped counts the overwritten ones). A
// small mutex serializes writers — rank workers record concurrently —
// and Record performs no allocations, so tracing can stay on in
// steady-state loops without breaking their zero-alloc guarantees.
type TraceRing struct {
	mu    sync.Mutex
	spans []Span
	next  int    // ring slot the next span lands in
	total uint64 // spans ever recorded
}

// NewTraceRing builds a ring holding up to n spans (n >= 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{spans: make([]Span, n)}
}

// Cap returns the ring's capacity.
func (t *TraceRing) Cap() int { return len(t.spans) }

// Record adds one span. Safe for concurrent use; allocation-free.
func (t *TraceRing) Record(name, phase string, rank int, start time.Time, dur time.Duration) {
	t.mu.Lock()
	t.spans[t.next] = Span{
		Name:  name,
		Phase: phase,
		Rank:  int32(rank),
		Start: start.UnixNano(),
		Dur:   int64(dur),
	}
	t.next++
	if t.next == len(t.spans) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Total returns how many spans were ever recorded.
func (t *TraceRing) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many spans the ring has overwritten.
func (t *TraceRing) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedLocked()
}

func (t *TraceRing) droppedLocked() uint64 {
	if t.total <= uint64(len(t.spans)) {
		return 0
	}
	return t.total - uint64(len(t.spans))
}

// Len returns how many spans the ring currently holds.
func (t *TraceRing) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.total - t.droppedLocked())
}

// Snapshot copies the held spans in recording order, oldest first.
func (t *TraceRing) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.total - t.droppedLocked())
	out := make([]Span, 0, n)
	if t.total > uint64(len(t.spans)) {
		// Ring has wrapped: oldest is at next.
		out = append(out, t.spans[t.next:]...)
		out = append(out, t.spans[:t.next]...)
	} else {
		out = append(out, t.spans[:t.next]...)
	}
	return out
}

// Reset discards every span (capacity unchanged).
func (t *TraceRing) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.spans)
	t.next = 0
	t.total = 0
}

// chromeEvent is one complete event ("ph":"X") of the Chrome trace_event
// format; timestamps and durations are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int32             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace_event format.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Meta        struct {
		Spans   int    `json:"spans"`
		Dropped uint64 `json:"dropped"`
	} `json:"op2"`
}

// WriteChromeTrace dumps the held spans as Chrome trace_event JSON —
// load it at chrome://tracing or https://ui.perfetto.dev. Ranks map to
// thread lanes (tid), phases to categories; timestamps are relative to
// the oldest span so the viewer opens at the action.
func (t *TraceRing) WriteChromeTrace(w io.Writer) error {
	spans := t.Snapshot()
	var epoch int64
	if len(spans) > 0 {
		epoch = spans[0].Start
		for _, s := range spans {
			if s.Start < epoch {
				epoch = s.Start
			}
		}
	}
	var ct chromeTrace
	ct.TraceEvents = make([]chromeEvent, len(spans))
	for i, s := range spans {
		ct.TraceEvents[i] = chromeEvent{
			Name: s.Name,
			Cat:  s.Phase,
			Ph:   "X",
			Ts:   float64(s.Start-epoch) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Pid:  1,
			Tid:  s.Rank,
			Args: map[string]string{"phase": s.Phase},
		}
	}
	ct.Meta.Spans = len(spans)
	ct.Meta.Dropped = t.Dropped()
	enc := json.NewEncoder(w)
	return enc.Encode(&ct)
}
