package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"op2hpx/internal/hpx/sched"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the tables in metrics.go and to
// the limits a manifest must keep to be accepted at all.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from `benchmark manifest`; regenerate it")
	}
	if len(onDisk) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(onDisk, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}

	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	if len(m.Command) > 32 {
		t.Errorf("command has %d strings, over 32", len(m.Command))
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	widest, setup := 0.0, -1.0
	for _, d := range m.EndToEnd {
		name("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		widest = max(widest, d.Bound)
		if d.Name == "setup_s" {
			setup = d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setup != widest {
		t.Errorf("setup_s has bound %v, the widest is %v", setup, widest)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not a valid unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		name("per-layer", d.Name)
	}
}

// TestSmokeRuns makes both runs of every workload at smoke scale and
// holds what they print to the declared metric sets.
func TestSmokeRuns(t *testing.T) {
	sched.ResetDefault(poolSize())
	out := t.TempDir()
	for _, w := range workloads(true) {
		for _, seed := range []uint64{0, 7} {
			c := runConfig{w: w, seed: seed, seconds: 0.05, setups: 1, jobs: 1, minRuns: 1, outDir: out}
			for mode, run := range map[string]func(runConfig) (result, error){"end-to-end": runEndToEnd, "traced": runTraced} {
				if mode == "traced" && seed != 0 {
					continue
				}
				res, err := run(c)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", w.name, seed, mode, err)
				}
				defs := endToEnd
				if mode == "traced" {
					defs = perLayer
				}
				checkResult(t, w.name+" "+mode, res, defs)
			}
		}
		b, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace does not load as a Chrome trace: %v, %d events", w.name, err, len(trace.TraceEvents))
		}
	}
}

func checkResult(t *testing.T, what string, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, %d declared", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s is missing", what, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s is %v", what, d.Name, v.Value)
		case d.Bound > 0 && v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s is %v, must be positive", what, d.Name, v.Value)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 10, 2, 8, 4, 6}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "block", Start: at(0), End: at(100), Parent: -1},
		{Name: "issue", Start: at(0), End: at(40), Parent: 0},
		{Name: "sync", Start: at(50), End: at(100), Parent: 0},
		{Name: "flush", Start: at(60), End: at(80), Parent: 2},
		{Name: "overlap", Start: at(30), End: at(55), Parent: 0}, // overlaps both siblings
	}
	self := selfTimes(spans)
	want := []time.Duration{0, 40, 30, 20, 25}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("self time of %s = %v, want %v ms", spans[i].Name, self[i], w)
		}
	}
	// Without the overlapping sibling the self times add up to the root.
	if got := subtreeSelf(spans[:4], selfTimes(spans[:4]), 0); got != 100*time.Millisecond {
		t.Errorf("self times under block add up to %v, want 100ms", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(stepMs ...float64) sweepFile {
		var f sweepFile
		for i, v := range stepMs {
			f.Runs = append(f.Runs, sweepRun{Workload: "aero_cg", Seed: uint64(i), Result: result{
				Metrics: map[string]metricValue{"step_ms": {v, "ms"}, "mcells_per_s": {100 / v, "Mcell/s"}}}})
		}
		return f
	}
	steady := set(10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10)
	verdictOf := func(b sweepFile, metric string) string {
		for _, v := range compareSets(steady, b) {
			if v.Metric == metric {
				return v.Verdict
			}
		}
		return "missing"
	}
	if got := verdictOf(steady, "step_ms"); got != "ok" {
		t.Errorf("A against itself: %s, want ok", got)
	}
	slower := set(14, 14.1, 13.9, 14, 14.05, 13.95, 14, 14.1, 13.9, 14)
	if got := verdictOf(slower, "step_ms"); got != "regressed" {
		t.Errorf("40%% slower steps: %s, want regressed", got)
	}
	if got := verdictOf(slower, "mcells_per_s"); got != "regressed" {
		t.Errorf("29%% lower throughput: %s, want regressed", got)
	}
	if got := verdictOf(set(11, 11.1, 10.9, 11, 11.05, 10.95, 11, 11.1, 10.9, 11), "step_ms"); got != "ok" {
		t.Errorf("10%% slower steps, within the bound: %s, want ok", got)
	}
	if got := verdictOf(set(8, 8, 8, 8, 8, 8, 8, 8, 8, 8), "step_ms"); got != "ok" {
		t.Errorf("faster: %s, want ok", got)
	}
	if got := verdictOf(set(6, 14, 8, 12, 10, 5, 15, 10, 8, 12), "step_ms"); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}
