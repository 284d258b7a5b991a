package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"op2hpx/internal/hpx/sched"
	"op2hpx/op2"
)

// scrape reads a registry the way an operator would: the Prometheus
// text it serves, one value per series line.
func scrape(reg *op2.Metrics) (map[string]float64, time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	series := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		series[line[:i]] = v
	}
	return series, took, sc.Err()
}

// delta is a scraped series' growth between two scrapes.
type delta struct{ before, after map[string]float64 }

func (d delta) of(series string) float64 { return d.after[series] - d.before[series] }

// meanMs is a histogram family's mean observation over the interval, in
// milliseconds: `name_sum{labels}` over `name_count{labels}`.
func (d delta) meanMs(name, labels string) float64 {
	n := d.of(name + "_count" + labels)
	if n == 0 {
		return 0
	}
	return 1e3 * d.of(name+"_sum"+labels) / n
}

// sumSeconds adds up every series of a histogram family's `_sum`.
func (d delta) sumSeconds(name string) float64 {
	total := 0.0
	for k := range d.after {
		if strings.HasPrefix(k, name+"_sum") {
			total += d.of(k)
		}
	}
	return total
}

// spanMs is the duration of the first span with the given name.
func spanMs(tr *tracer, name string) float64 {
	for _, s := range tr.spans {
		if s.Name == name {
			return ms(s.End.Sub(s.Start))
		}
	}
	return 0
}

// loopSeries maps the per-layer loop metrics to the registry's
// histogram families and label sets.
var loopSeries = map[string][2]string{
	"core.loop_ms.res_calc":                 {"op2_loop_seconds", `{loop="res_calc"}`},
	"core.loop_ms.bres_calc":                {"op2_loop_seconds", `{loop="bres_calc"}`},
	"core.loop_ms.update":                   {"op2_loop_seconds", `{loop="update"}`},
	"core.loop_ms.fused_save_soln_adt_calc": {"op2_fused_group_seconds", `{group="fused(save_soln+adt_calc)"}`},
	"core.loop_ms.fused_update_adt_calc":    {"op2_fused_group_seconds", `{group="fused(update+adt_calc)"}`},
	"core.loop_ms.aero_res":                 {"op2_loop_seconds", `{loop="res"}`},
	"core.loop_ms.aero_dot":                 {"op2_loop_seconds", `{loop="dotPV"}`},
	"core.loop_ms.aero_update":              {"op2_loop_seconds", `{loop="updateUR"}`},
}

// runTraced makes the traced run: the subject rebuilt with a metrics
// registry and a span ring attached, timed beside the untraced subject
// and the two baselines, then the variants and the module probes. It
// reports every per-layer metric and writes the merged trace.
func runTraced(c runConfig) (res result, err error) {
	w := c.w
	if w.prepare != nil {
		if err := w.prepare(c.seed); err != nil {
			return res, err
		}
	}
	tr := &tracer{}
	reg, ring := op2.NewMetrics(), op2.NewTraceRing(1<<17)
	serialReg := op2.NewMetrics()
	values := map[string]float64{}
	var o ops

	// Build the four instances. The traced subject's set-up is recorded
	// span by span; every instance runs one step (the first, which
	// builds the plans) and then one warm-up block.
	const (
		plain = iota
		traced
		base   // serial, with a registry of its own for its loop times
		fjBase // fork-join
	)
	insts := make([]instance, 4)
	defer closeAll(&err, insts)
	tr.begin("run " + w.name)
	for i, b := range []struct {
		r role
		o buildOpts
	}{
		{subject, buildOpts{seed: c.seed}},
		{subject, buildOpts{seed: c.seed, tr: tr, reg: reg, ring: ring}},
		{serial, buildOpts{seed: c.seed, reg: serialReg}},
		{forkjoin, buildOpts{seed: c.seed}},
	} {
		b.o.tr.begin("setup")
		insts[i], err = w.build(b.r, b.o)
		if err == nil {
			b.o.tr.begin("first step")
			_, err = insts[i].block(1)
			b.o.tr.end()
		}
		b.o.tr.end()
		if err == nil {
			_, err = insts[i].block(w.blockSteps)
		}
		if err != nil {
			return res, err
		}
	}
	values["op2.new_ms"] = spanMs(tr, "op2.New") + spanMs(tr, "op2.NewService")
	values["op2.first_step_ms"] = spanMs(tr, "first step")
	values["dist.partition_ms"] = spanMs(tr, "dist.Partition")

	// The timed rounds: one block of each instance in turn.
	var d, ds delta
	if d.before, _, err = scrape(reg); err != nil {
		return res, err
	}
	if ds.before, _, err = scrape(serialReg); err != nil {
		return res, err
	}
	pool := sched.Default()
	timed := make([]series, 4)
	var mallocs, steals uint64
	var haloMsgs, haloBufs int64
	deadline := time.Now().Add(time.Duration(0.6 * c.seconds * float64(time.Second)))
	for n := 0; n < c.minRuns || time.Now().Before(deadline); n++ {
		tr.run = n + 1
		for i, in := range insts {
			var m0, m1 runtime.MemStats
			var s0 uint64
			var h0, b0 int64
			if i == plain {
				runtime.ReadMemStats(&m0)
				_, s0 = pool.Stats()
				if rt := in.runtime(); rt != nil {
					h0 = rt.HaloMessagesSent()
					b0, _ = rt.HaloBufferStats()
				}
			}
			if i == traced {
				tr.begin("block")
			}
			bt, err := in.block(w.blockSteps)
			if err != nil {
				return res, fmt.Errorf("instance %d block %d: %w", i, n, err)
			}
			if i == traced {
				tr.end()
			}
			if i == plain {
				runtime.ReadMemStats(&m1)
				_, s1 := pool.Stats()
				mallocs += m1.Mallocs - m0.Mallocs
				steals += s1 - s0
				if rt := in.runtime(); rt != nil {
					haloMsgs += rt.HaloMessagesSent() - h0
					b1, _ := rt.HaloBufferStats()
					haloBufs += b1 - b0
				}
			}
			timed[i] = append(timed[i], bt)
		}
	}
	var scrapeTook time.Duration
	if d.after, scrapeTook, err = scrape(reg); err != nil {
		return res, err
	}
	if ds.after, _, err = scrape(serialReg); err != nil {
		return res, err
	}

	// Every instance has run the same steps: check them against serial.
	tr.begin("verify")
	want := insts[base].state()
	for _, i := range []int{plain, traced, fjBase} {
		o.check(w, timed[i].steps(), insts[i].state(), want)
	}
	tr.end()

	p, t := timed[plain], timed[traced]
	steps := float64(p.steps())
	stepMs := median(p.stepMs())
	serialMs := median(timed[base].stepMs())
	var issue, wait, flush []float64
	for _, b := range p {
		issue = append(issue, us(b.issued.Sub(b.start))/float64(b.steps))
		wait = append(wait, b.synced.Sub(b.issued).Seconds())
		flush = append(flush, ms(b.synced.Sub(b.fenced)))
	}
	values["op2.issue_us_per_step"] = median(issue)
	values["op2.sync_wait_share"] = sum(wait) / p.wall().Seconds()
	values["op2.allocs_per_step"] = float64(mallocs) / steps
	values["op2.step_p90_ms"] = percentile(p.stepMs(), 0.9)
	values["op2.dataflow_gain"] = median(timed[fjBase].stepMs()) / stepMs
	values["hpx.sched_steals_per_step"] = float64(steals) / steps
	values["obs.traced_over_untraced"] = median(t.stepMs()) / stepMs
	values["obs.spans_recorded"] = float64(ring.Total())
	values["obs.spans_dropped"] = float64(ring.Dropped())
	values["obs.scrape_ms"] = ms(scrapeTook)

	// core: loop times of the traced subject, per execution.
	tsteps := float64(t.steps())
	for name, series := range loopSeries {
		values[name] = d.meanMs(series[0], series[1])
	}
	loopSeconds := d.sumSeconds("op2_loop_seconds") + d.sumSeconds("op2_fused_group_seconds")
	values["core.loop_sum_share"] = loopSeconds / t.wall().Seconds()
	values["core.fused_groups_per_step"] = d.of("op2_fused_groups_total") / tsteps

	// airfoil: how much of the serial executor's loop time the bare
	// kernels (probes, below) do not account for is filled in after the
	// probes; the computed traffic needs only the mesh.
	if w.airfoil != nil {
		values["airfoil.bytes_per_step_computed"] = float64(w.airfoil.bytesPerStep())
		values["airfoil.gb_per_s_computed"] = float64(w.airfoil.bytesPerStep()) / (stepMs * 1e6)
	}

	_, tcp := insts[plain].(*tcpAirfoil)
	if w.ranks > 0 {
		// dist: the phase histograms sum over the ranks that feed the
		// registry: both in-process ranks, or rank 0 alone over TCP.
		feeding := float64(w.ranks)
		if tcp {
			feeding = 1
		}
		for _, ph := range []string{"issue", "hoist", "interior", "halo", "boundary", "inc-apply"} {
			values["dist.phase_ms."+ph] = 1e3 * d.of(`op2_dist_phase_seconds_sum{phase="`+ph+`"}`) / tsteps / feeding
		}
		values["dist.phase_sum_share"] = d.sumSeconds("op2_dist_phase_seconds") / feeding / t.wall().Seconds()
		values["dist.halo_msgs_per_step"] = float64(haloMsgs) / steps
		values["dist.halo_buffers_allocated_per_step"] = float64(haloBufs) / steps
		values["dist.sync_flush_ms"] = median(flush)
		values["dist.overhead_vs_serial"] = stepMs / serialMs
		for _, s := range insts[plain].runtime().PartitionReport() {
			if !s.Derived {
				values["dist.edge_cut"] = float64(s.EdgeCut)
				values["dist.imbalance"] = s.Imbalance
			}
		}
	}
	if tcp {
		var wire, frames, flushed []float64
		for _, b := range p {
			wire = append(wire, float64(b.net[1].BytesSent-b.net[0].BytesSent)/float64(b.steps))
			frames = append(frames, float64(b.net[1].FramesSent-b.net[0].FramesSent)/float64(b.steps))
			flushed = append(flushed, float64(b.net[2].BytesSent-b.net[1].BytesSent))
		}
		last := p[len(p)-1].net[2]
		values["net.bytes_per_step"] = median(wire)
		values["net.frames_per_step"] = median(frames)
		values["net.sync_bytes_per_block"] = median(flushed)
		values["net.frame_allocs_steady"] = float64(last.FrameAllocs - p[0].net[0].FrameAllocs)
		values["net.heartbeat_misses"] = float64(last.HeartbeatMisses)
		values["net.reconnects"] = float64(last.Reconnects)
		values["net.connect_ms"] = 1e3 * d.after["op2_net_connect_seconds_sum"] / max(1, d.after["op2_net_connect_seconds_count"])
	}
	if sv, ok := insts[plain].(*serviceInst); ok {
		tr.begin("service solo jobs")
		err = sv.serviceMetrics(values, p, d)
		tr.end()
		if err != nil {
			return res, err
		}
	}

	if w.variants {
		tr.begin("variants")
		err = variants(c, values, insts[plain])
		tr.end()
		if err != nil {
			return res, err
		}
	}

	// The module probes run alone, with the instances closed: plans and
	// partitions on the rank workloads' mesh, the bare kernels on the
	// workload's own where it has one.
	if closeAll(&err, insts); err != nil {
		return res, err
	}
	in := probeInputs{budget: time.Duration(c.seconds * float64(time.Second) / 100), seed: c.seed,
		topo: airfoilWorkload{nx: 240, ny: 120}}
	if w.smoke {
		in.topo = airfoilWorkload{nx: 40, ny: 20}
	}
	in.kernelMesh = in.topo
	if w.airfoil != nil {
		in.kernelMesh = *w.airfoil
	}
	if err := probes(values, in, tr); err != nil {
		return res, err
	}
	// What the serial executor's loop takes beyond the bare kernel.
	_, cells, edges, _ := in.kernelMesh.sizes()
	for kernel, elems := range map[string]int{"res_calc": edges, "adt_calc": cells, "update": cells} {
		if loopMs := ds.meanMs("op2_loop_seconds", `{loop="`+kernel+`"}`); loopMs > 0 {
			bare := values["airfoil.kernel_ns_per_elem."+kernel] * float64(elems) / 1e6
			values["airfoil.exec_overhead_share."+kernel] = 1 - bare/loopMs
		}
	}
	tr.end() // run

	if err := writeTrace(c.outDir, w.name, tr, ring); err != nil {
		return res, err
	}
	reportSelfTimes(tr)
	for _, f := range o.failures {
		fmt.Printf("# ORACLE FAILED: %v\n", f)
	}
	return o.result(values, perLayer)
}

// variants times the subject with the §V prefetcher and with the §IV-B
// persistent chunker beside the plain subject, five rounds.
func variants(c runConfig, values map[string]float64, plain instance) (err error) {
	insts := []instance{plain, nil, nil}
	defer closeAll(&err, insts[1:])
	for i, opt := range []op2.Option{op2.WithPrefetchDistance(15), op2.WithChunker(op2.PersistentAutoChunk())} {
		if insts[i+1], err = c.w.build(subject, buildOpts{seed: c.seed, extra: []op2.Option{opt}}); err != nil {
			return err
		}
		if _, err = insts[i+1].block(c.w.blockSteps); err != nil {
			return err
		}
	}
	timed := make([]series, 3)
	for range max(c.minRuns, 5) {
		for i, in := range insts {
			bt, err := in.block(c.w.blockSteps)
			if err != nil {
				return err
			}
			timed[i] = append(timed[i], bt)
		}
	}
	base := median(timed[0].stepMs())
	values["core.prefetch_ratio"] = median(timed[1].stepMs()) / base
	values["hpx.persistent_chunk_ratio"] = median(timed[2].stepMs()) / base
	return nil
}

// writeTrace writes dir/trace-<workload>.json: the benchmark's spans
// merged with the runtime's ring.
func writeTrace(dir, name string, tr *tracer, ring *op2.TraceRing) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, tr.spans, ring.Snapshot()); err != nil {
		f.Close() //nolint:errcheck // the write error is the root cause
		return err
	}
	return f.Close()
}

// reportSelfTimes prints where the traced run's wall-clock went, by
// span name, and checks that the self times under each block add up to
// the block.
func reportSelfTimes(tr *tracer) {
	self := selfTimes(tr.spans)
	byName := map[string]time.Duration{}
	var order []string
	worst := 0.0
	for i, s := range tr.spans {
		if _, seen := byName[s.Name]; !seen {
			order = append(order, s.Name)
		}
		byName[s.Name] += self[i]
		if s.Name == "block" {
			wall := s.End.Sub(s.Start)
			worst = max(worst, math.Abs(float64(subtreeSelf(tr.spans, self, i)-wall))/float64(wall))
		}
	}
	fmt.Printf("# self time by span:")
	for _, name := range order {
		fmt.Printf(" %s %.1fms;", name, ms(byName[name]))
	}
	fmt.Printf("\n# span self times differ from their block's wall-clock by at most %.3f%%\n", 100*worst)
}
