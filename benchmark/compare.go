package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// sweepFile is what `benchmark sweep` writes and `benchmark compare`
// reads: the environment and one result per workload, seed and mode.
type sweepFile struct {
	Env   environment `json:"env"`
	Runs  []sweepRun  `json:"runs"`
	Claim *string     `json:"claim"` // always null: the benchmark is the ruler, it claims no gain
}

type sweepRun struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"`
	Result   result  `json:"result"`
}

// sweepCommand runs every workload `-runs` times, each with another
// seed, as the driver does: one process per run.
func sweepCommand(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload, seeds first..first+runs-1")
	first := fs.Uint64("first-seed", 1, "seed of the first run")
	only := fs.String("workload", "", "comma-separated workloads (default: all)")
	seconds := fs.Float64("seconds", runSeconds, "how long each run measures")
	smoke := fs.Bool("smoke", false, "tiny inputs and counts, for tests")
	out := fs.String("out", "", "result file (default: standard output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := sweepFile{Env: readEnvironment()}
	for _, w := range workloads(*smoke) {
		if *only != "" && !strings.Contains(","+*only+",", ","+w.name+",") {
			continue
		}
		for i := 0; i < *runs+1; i++ {
			seed, trace := *first+uint64(i), 0
			if i == *runs { // and one traced run
				seed, trace = *first, 1
			}
			run, err := runChild(exe, w.name, seed, trace, *seconds, *smoke)
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", w.name, seed, trace, err)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d trace %d: %.1f s\n", w.name, seed, trace, run.WallS)
			file.Runs = append(file.Runs, run)
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}

// runChild makes one run in a process of its own and parses the last
// line of its output.
func runChild(exe, workload string, seed uint64, trace int, seconds float64, smoke bool) (sweepRun, error) {
	run := sweepRun{Workload: workload, Seed: seed, Trace: trace}
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	start := time.Now()
	outb, err := cmd.Output()
	run.WallS = time.Since(start).Seconds()
	if err != nil {
		return run, err
	}
	last, err := lastLine(bytes.NewReader(outb))
	if err != nil {
		return run, err
	}
	return run, json.Unmarshal(last, &run.Result)
}

func lastLine(r io.Reader) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no output")
	}
	return last, sc.Err()
}

// verdict of one workload × end-to-end metric between two result sets.
type verdict struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // share of A's median by which B is worse (negative: better)
	Spread           float64 // the wider of the two quartile spreads
	Bound            float64
	Verdict          string // ok, regressed or unresolved
}

// compareSets judges B against A: regressed when B's median is worse
// than A's by more than the metric's bound, unresolved when either
// set's own quartile spread is wider than the bound (then the medians
// cannot tell), ok otherwise.
func compareSets(a, b sweepFile) []verdict {
	values := func(f sweepFile, w, m string) []float64 {
		var xs []float64
		for _, r := range f.Runs {
			if v, ok := r.Result.Metrics[m]; ok && r.Workload == w && r.Trace == 0 {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	var out []verdict
	for _, w := range workloads(false) {
		for _, d := range endToEnd {
			xa, xb := values(a, w.name, d.Name), values(b, w.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict{Workload: w.name, Metric: d.Name, A: median(xa), B: median(xb), Bound: d.Bound,
				Spread: max(quartileSpread(xa), quartileSpread(xb)), Verdict: "ok"}
			v.Worse = (v.B - v.A) / v.A
			if d.Better == "higher" {
				v.Worse = -v.Worse
			}
			switch {
			case v.Worse > v.Bound:
				v.Verdict = "regressed"
			case v.Spread > v.Bound && d.Name != "setup_s":
				v.Verdict = "unresolved"
			}
			out = append(out, v)
		}
	}
	return out
}

func compareCommand(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare A.json B.json")
	}
	var files [2]sweepFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	verdicts := compareSets(files[0], files[1])
	fmt.Fprintf(w, "| workload | metric | A median | B median | B worse by | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n")
	regressed := 0
	for _, v := range verdicts {
		fmt.Fprintf(w, "| %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
			v.Workload, v.Metric, v.A, v.B, 100*v.Worse, 100*v.Spread, 100*v.Bound, v.Verdict)
		if v.Verdict == "regressed" {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
