package main

import (
	"encoding/json"
	"strings"
)

// metricDef declares one metric of the benchmark. The tables below are
// the single source of the names: BENCHMARK.json is `benchmark manifest`
// printed from them, every run is checked against them before it prints
// its result, and `compare` reads the bounds from them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the measuring time of one run, the value the driver
// passes as --seconds.
const runSeconds = 10

// endToEnd are the metrics a user of the runtime sees; every workload
// emits all of them. A step is one Airfoil timestep (one CG iteration
// in aero_cg, one job-timestep in service_jobs). The bounds follow the
// quartile spreads measured on a 2-core microVM (README, "A/A spread"):
// whole runs there drift by 5 to 19 % with the host's other tenants, so
// every timing gets the widest bound a manifest may carry; the heap
// repeats to about 1 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_ms", "ms", "lower", 0.25},
	{"step_ms", "ms", "lower", 0.25},
	{"serial_step_ms", "ms", "lower", 0.25},
	{"forkjoin_step_ms", "ms", "lower", 0.25},
	{"mcells_per_s", "Mcell/s", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
}

// perLayer are the numbers of single modules, `<module>.<name>`, from
// the traced run and from direct timed calls into each module. A
// metric whose layer does not run on a workload reads 0 there.
var perLayer = layerMetrics(
	// op2: the public facade — issue path, sync, set-up.
	"op2.issue_us_per_step us lower",
	"op2.sync_wait_share share lower",
	"op2.allocs_per_step count lower",
	"op2.step_p90_ms ms lower",
	"op2.new_ms ms lower",
	"op2.first_step_ms ms lower",
	"op2.dataflow_gain ratio higher",
	// core: plans, compiled loops, step graphs.
	"core.loop_ms.res_calc ms lower",
	"core.loop_ms.bres_calc ms lower",
	"core.loop_ms.update ms lower",
	"core.loop_ms.fused_save_soln_adt_calc ms lower",
	"core.loop_ms.fused_update_adt_calc ms lower",
	"core.loop_ms.aero_res ms lower",
	"core.loop_ms.aero_dot ms lower",
	"core.loop_ms.aero_update ms lower",
	"core.loop_sum_share share higher",
	"core.plan_build_ms ms lower",
	"core.plan_colors count lower",
	"core.plan_blocks count lower",
	"core.step_compile_ms ms lower",
	"core.fused_groups_per_step count higher",
	"core.empty_loop_issue_ns ns lower",
	"core.dep_chain_ns ns lower",
	"core.prefetch_ratio ratio lower",
	// hpx: LCOs, scheduler, for_each.
	"hpx.lco_roundtrip_ns ns lower",
	"hpx.sched_submit_ns ns lower",
	"hpx.sched_steals_per_step count lower",
	"hpx.foreach_chunk_overhead_ns ns lower",
	"hpx.persistent_chunk_ratio ratio lower",
	// airfoil: the kernels with no runtime around them.
	"airfoil.kernel_ns_per_elem.res_calc ns lower",
	"airfoil.kernel_ns_per_elem.adt_calc ns lower",
	"airfoil.kernel_ns_per_elem.update ns lower",
	"airfoil.exec_overhead_share.res_calc share lower",
	"airfoil.exec_overhead_share.adt_calc share lower",
	"airfoil.exec_overhead_share.update share lower",
	"airfoil.bytes_per_step_computed B lower",
	"airfoil.gb_per_s_computed GB/s higher",
	// dist: the owner-compute rank engine.
	"dist.phase_ms.issue ms lower",
	"dist.phase_ms.hoist ms lower",
	"dist.phase_ms.interior ms lower",
	"dist.phase_ms.halo ms lower",
	"dist.phase_ms.boundary ms lower",
	"dist.phase_ms.inc-apply ms lower",
	"dist.phase_sum_share share higher",
	"dist.halo_msgs_per_step count lower",
	"dist.halo_buffers_allocated_per_step count lower",
	"dist.partition_ms ms lower",
	"dist.edge_cut count lower",
	"dist.imbalance ratio lower",
	"dist.sync_flush_ms ms lower",
	"dist.overhead_vs_serial ratio lower",
	// net: the TCP rank transport.
	"net.bytes_per_step B lower",
	"net.frames_per_step count lower",
	"net.sync_bytes_per_block B lower",
	"net.frame_allocs_steady count lower",
	"net.pingpong_us us lower",
	"net.connect_ms ms lower",
	"net.heartbeat_misses count lower",
	"net.reconnects count lower",
	// part: the partitioners, on the rank workloads' topology.
	"part.partition_ms.block ms lower",
	"part.partition_ms.rcb ms lower",
	"part.partition_ms.greedy ms lower",
	"part.edge_cut.block count lower",
	"part.edge_cut.rcb count lower",
	"part.edge_cut.greedy count lower",
	// service: the job control plane.
	"service.jobs_per_s 1/s higher",
	"service.queue_wait_ms ms lower",
	"service.start_ms ms lower",
	"service.submit_us us lower",
	"service.collect_ms ms lower",
	"service.solo_job_ms ms lower",
	"service.interference_ratio ratio lower",
	"service.steps_issued count higher",
	"service.steps_retired count higher",
	"service.rejected count lower",
	"service.failed count lower",
	"service.retries count lower",
	// obs: what observing costs.
	"obs.traced_over_untraced ratio lower",
	"obs.spans_recorded count higher",
	"obs.spans_dropped count lower",
	"obs.scrape_ms ms lower",
	// translator: the source-to-source compiler.
	"translator.parse_us us lower",
	"translator.generate_us us lower",
	"translator.output_bytes B lower",
	"translator.deterministic count higher",
)

func layerMetrics(specs ...string) []metricDef {
	out := make([]metricDef, len(specs))
	for i, s := range specs {
		f := strings.Fields(s)
		out[i] = metricDef{Name: f[0], Unit: f[1], Better: f[2]}
	}
	return out
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []metricDef      `json:"end_to_end"`
	PerLayer   []layerMetricDef `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerMetricDef is metricDef without the bound: per-layer metrics are
// reported, not gated.
type layerMetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads(false) {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerMetricDef{d.Name, d.Unit, d.Better})
	}
	return m
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}
