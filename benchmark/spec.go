package main

// This file is the benchmark's table of contents: the workloads, the
// end-to-end metrics with their bounds, and the per-layer metrics. It must
// agree with BENCHMARK.json name for name (names_test.go checks both ways).

// metricDef names one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, from an untraced run in default modes.
//
// The bounds are three times the widest quartile spread seen over ten seeds
// on a two-core VM (README.md, "Measured"): throughput spreads 1-7 % there
// depending on the workload and the hour, allocation under 0.3 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"sim_mips", "MIPS", "higher", 0.20},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
}

// perLayer are the metrics of single layers, from a traced run. A workload
// that does not exercise a layer reports 0 for its metrics and says n/a in
// the readable output.
var perLayer = []metricDef{
	// Front end: cc, ir, ddg, dae, interp, trace.
	{Name: "cc.compile_o0_s", Unit: "s", Better: "lower"},
	{Name: "cc.compile_o2_s", Unit: "s", Better: "lower"},
	{Name: "ir.o2_static_instr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ddg.build_s", Unit: "s", Better: "lower"},
	{Name: "ddg.nodes", Unit: "count", Better: "lower"},
	{Name: "dae.slice_s", Unit: "s", Better: "lower"},
	{Name: "interp.trace_s", Unit: "s", Better: "lower"},
	{Name: "interp.instrs", Unit: "count", Better: "lower"},
	{Name: "interp.mips", Unit: "MIPS", Better: "higher"},
	{Name: "trace.encode_s", Unit: "s", Better: "lower"},
	{Name: "trace.bytes_per_instr", Unit: "B", Better: "lower"},
	// Session engine and artifact cache.
	{Name: "sim.artifact_hits", Unit: "count", Better: "higher"},
	{Name: "sim.artifact_misses", Unit: "count", Better: "lower"},
	{Name: "sim.artifact_evictions", Unit: "count", Better: "lower"},
	{Name: "sim.session_overhead_s", Unit: "s", Better: "lower"},
	// The Interleaver: host time and the cycles it was spent on.
	{Name: "soc.build_s", Unit: "s", Better: "lower"},
	{Name: "soc.run_s", Unit: "s", Better: "lower"},
	{Name: "soc.stepped_cycles", Unit: "count", Better: "lower"},
	{Name: "soc.skipped_cycles", Unit: "count", Better: "higher"},
	{Name: "soc.skip_frac", Unit: "ratio", Better: "higher"},
	{Name: "soc.ns_per_stepped_cycle", Unit: "ns", Better: "lower"},
	{Name: "soc.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "soc.ns_per_mem_access", Unit: "ns", Better: "lower"},
	{Name: "soc.noskip_over_skip", Unit: "ratio", Better: "higher"},
	{Name: "soc.sharded_over_seq", Unit: "ratio", Better: "lower"},
	// Simulated statistics: none may move under a host-speed change.
	{Name: "core.ipc", Unit: "ratio", Better: "higher"},
	{Name: "core.mao_stalls", Unit: "count", Better: "lower"},
	{Name: "core.fu_stalls", Unit: "count", Better: "lower"},
	{Name: "core.window_stalls", Unit: "count", Better: "lower"},
	{Name: "core.comm_stalls", Unit: "count", Better: "lower"},
	{Name: "core.mispredicts", Unit: "count", Better: "lower"},
	{Name: "mem.l1_accesses", Unit: "count", Better: "lower"},
	{Name: "mem.l1_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "mem.l2_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "mem.llc_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "mem.mshr_stalls", Unit: "count", Better: "lower"},
	{Name: "mem.dram_reads", Unit: "count", Better: "lower"},
	{Name: "mem.dram_throttled", Unit: "count", Better: "lower"},
	// Timing replay.
	{Name: "replay.hits", Unit: "count", Better: "higher"},
	{Name: "replay.fallbacks", Unit: "count", Better: "lower"},
	{Name: "replay.recorded", Unit: "count", Better: "lower"},
	{Name: "replay.record_leg_s", Unit: "s", Better: "lower"},
	{Name: "replay.hit_leg_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.fallback_leg_s", Unit: "s", Better: "lower"},
	// Sweep-level parallelism.
	{Name: "parallel.sweep_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sweep.inflight_speedup", Unit: "ratio", Better: "higher"},
	// The daemon: server, jobs, store, cluster.
	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.status_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.events_ttfb_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "server.report_bytes", Unit: "B", Better: "lower"},
	{Name: "jobs.turnaround_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.done_to_client_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.stage_artifact_s", Unit: "s", Better: "lower"},
	{Name: "jobs.stage_run_s", Unit: "s", Better: "lower"},
	{Name: "jobs.stage_report_s", Unit: "s", Better: "lower"},
	{Name: "jobs.stage_cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "jobs.shed_total", Unit: "count", Better: "lower"},
	{Name: "store.bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "store.recover_s", Unit: "s", Better: "lower"},
	{Name: "cluster.lease_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.leases_granted", Unit: "count", Better: "lower"},
	{Name: "cluster.affinity_hits", Unit: "count", Better: "higher"},
	{Name: "cluster.steals", Unit: "count", Better: "lower"},
	{Name: "cluster.leases_expired", Unit: "count", Better: "lower"},
	{Name: "cluster.heartbeats", Unit: "count", Better: "lower"},
	// Accuracy against the repo's reference model, and the harness itself.
	{Name: "href.accuracy_geomean", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	// Peak resident memory of the simulating processes. It swings by a
	// quarter between identical runs (64 MB memory images come and go with
	// garbage-collector timing), too much for a bound, so it sits here.
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string
	Why  string
	// Bins are the repo binaries the workload drives as child processes
	// (built from ./cmd before the run; a traced run may need more).
	Bins, TraceBins []string
	New             func(cfg runConfig) workload
}

var workloadDefs = []workloadDef{
	{
		Name:      "dense_1t",
		Why:       "Compute-bound kernels on one tile: core issue/complete and the tile loop do the work, little is skipped",
		TraceBins: []string{"experiments"},
		New: func(cfg runConfig) workload {
			return newTiming(cfg, oneTileOps(cfg, []string{"sgemm", "mri-q", "sad", "cutcp"}), accuracyProbe)
		},
	},
	{
		Name:      "sparse_1t",
		Why:       "Memory-bound kernels on one tile: most cycles are horizon jumps, so mem ticks and skipping dominate",
		TraceBins: []string{"mosaicsim"},
		New: func(cfg runConfig) workload {
			return newTiming(cfg, oneTileOps(cfg, []string{"bfs", "spmv", "lbm", "stencil"}), noskipProbe)
		},
	},
	{
		Name:      "mesh64",
		Why:       "64 tiles on an 8x8 mesh, directory on and off: per-tile loop, fabric and coherence commits dominate",
		TraceBins: []string{"mosaicsim"},
		New:       func(cfg runConfig) workload { return newTiming(cfg, meshOps(cfg), shardedProbe) },
	},
	{
		Name: "frontend_cold",
		Why:  "Source to trace for all 15 kernels at O0 and O2 from an empty cache: no system is built, so only front-end work shows",
		New:  func(cfg runConfig) workload { return newFrontend(cfg) },
	},
	{
		Name:      "sweep_grid",
		Why:       "A design sweep through one shared cache with replay on: structural legs run in full, timing-only legs should replay",
		TraceBins: []string{"experiments"},
		New:       func(cfg runConfig) workload { return newSweep(cfg) },
	},
	{
		Name: "svc_mix",
		Why:  "Zipf job mix against a standalone mosaicd child, closed loop: the service user's submit-stream-report round trip",
		Bins: []string{"mosaicd"},
		New:  func(cfg runConfig) workload { return newService(cfg, false) },
	},
	{
		Name: "fleet_mix",
		Why:  "The same job mix through a coordinator and two workers: lease polling, heartbeats and event forwarding dominate",
		Bins: []string{"mosaicd"},
		New:  func(cfg runConfig) workload { return newService(cfg, true) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}
