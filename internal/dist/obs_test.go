package dist_test

import (
	"context"
	"strings"
	"testing"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
	"op2hpx/internal/obs"
)

// TestEngineMetricsAndSpans runs a multi-rank step program with the
// observability layer attached and asserts the engine's counters, the
// per-phase histograms and the span ring all populate — and that the
// exported Prometheus text carries the halo gauges.
func TestEngineMetricsAndSpans(t *testing.T) {
	const n, ranks, steps = 64, 3, 4
	r := newRing(t, n)
	e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(4096)
	e.SetMetrics(reg)
	e.SetTraceRing(ring)
	if e.Metrics() != reg || e.TraceRing() != ring {
		t.Fatal("engine observability accessors broken")
	}

	r.runSteps(t, steps, func(l *core.Loop) error { return e.Run(context.Background(), l) })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"op2_halo_messages_total",
		"op2_halo_buffers_allocated_total",
		"op2_halo_buffers_requested_total",
		"op2_dist_plan_builds_total",
		`op2_dist_phase_seconds_bucket{phase="interior"`,
		`op2_dist_phase_seconds_bucket{phase="halo"`,
		`op2_dist_phase_seconds_bucket{phase="boundary"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The ring's flux loop reads x's halo on every rank once scale has
	// written x: spans must cover the exchange-post, compute and halo
	// phases, with rank lanes spanning the engine.
	phases := map[string]bool{}
	rankSeen := map[int32]bool{}
	for _, s := range ring.Snapshot() {
		phases[s.Phase] = true
		rankSeen[s.Rank] = true
	}
	for _, ph := range []string{"issue", "interior", "halo", "boundary"} {
		if !phases[ph] {
			t.Errorf("no span recorded for phase %q (got %v)", ph, phases)
		}
	}
	if len(rankSeen) != ranks {
		t.Errorf("spans cover %d ranks, want %d", len(rankSeen), ranks)
	}
}

// TestEngineObservabilityOffRecordsNothing pins the off-by-default
// contract: with no registry or ring attached the engine records no
// spans and samples no histograms (there is nothing attached to record
// into), and attaching nil after enabling disables cleanly.
func TestEngineObservabilityOffRecordsNothing(t *testing.T) {
	const n, ranks = 32, 2
	r := newRing(t, n)
	e, err := dist.NewEngine(dist.Config{Ranks: ranks, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ring := obs.NewTraceRing(64)
	e.SetTraceRing(ring)
	e.SetTraceRing(nil) // disabled again before any work
	r.runSteps(t, 2, func(l *core.Loop) error { return e.Run(context.Background(), l) })
	if got := ring.Total(); got != 0 {
		t.Fatalf("detached ring recorded %d spans, want 0", got)
	}
}
