package main

// metricDef names one reported metric and its unit. The lists must match
// the end_to_end and per_layer entries of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are reported by untraced runs. Every workload reports all of
// them; perfbench/METRICS.md gives each workload's meaning.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// cpuModules are the internal packages whose self time the traced run
// attributes (plus runtime and everything else).
var cpuModules = []string{"simt", "mem", "core", "fault", "ecc", "timing", "cache",
	"dram", "noc", "experiments", "store", "kernels", "nn", "profile"}

// perLayer are reported by traced runs.
var perLayer = func() []metricDef {
	out := []metricDef{
		// Setup stages.
		{"nn.train_s", "s"},
		{"kernels.build_s", "s"},
		{"profile.collect_s", "s"},
		{"simt.golden_run_ms", "ms"},
		// One campaign run's stages (per-stage probe) and the batched path.
		{"mem.fork_us", "us"},
		{"mem.fork_reset_us", "us"},
		{"mem.inert_check_us", "us"},
		{"mem.diverge_us", "us"},
		{"mem.block_copies_per_run", "count"},
		{"fault.inject_us", "us"},
		{"fault.classify_us", "us"},
		{"simt.run_ms", "ms"},
		{"experiments.batch_us_per_run", "us"},
		{"experiments.batch_occupancy", "count"},
		{"experiments.batch_fallback_frac", "frac"},
		{"simt.replayed_warps_per_run", "count"},
		{"probe.parity_runs", "count"},
		// Useful-work ratios of the campaign layer.
		{"fault.pruned_frac", "frac"},
		{"fault.preclassified_frac", "frac"},
		{"fault.executed_frac", "frac"},
		// Protected read path.
		{"core.protected_run_ms", "ms"},
		{"core.protected_run_ms.detection", "ms"},
		{"core.protected_run_ms.correction", "ms"},
		{"core.protect_overhead_x", "x"},
		// Checkpoint artifacts.
		{"experiments.artifact_build_s.golden", "s"},
		{"experiments.artifact_build_s.capture", "s"},
		{"experiments.artifact_build_s.missweights", "s"},
		{"timing.missweights_s", "s"},
		{"experiments.checkpoint_builds", "count"},
		// Fan-out.
		{"experiments.pool_busy_frac", "frac"},
		{"experiments.task_max_s", "s"},
		// Timing replays and simulated counts.
		{"timing.replay_s.baseline", "s"},
		{"timing.replay_s.detection", "s"},
		{"timing.replay_s.correction", "s"},
		{"timing.sim_cycles", "cycles"},
		{"timing.sim_winstr", "count"},
		{"timing.copy_transactions", "count"},
		{"timing.compare_stalls", "count"},
		{"timing.mshr_stalls", "count"},
		{"cache.l1_miss_rate", "frac"},
		{"cache.l2_miss_rate", "frac"},
		{"dram.row_hit_rate", "frac"},
		{"dram.avg_latency_cycles", "cycles"},
		{"noc.requests", "count"},
		// Paper-accuracy gaps (simulated, exact at a fixed seed).
		{"experiments.fig7_det_gap_pp", "pp"},
		{"experiments.fig7_cor_gap_pp", "pp"},
		{"experiments.fig9_sdc_drop_gap_pp", "pp"},
		// Serving.
		{"store.mem_hit_frac", "frac"},
		{"store.disk_hit_frac", "frac"},
		{"store.disk_bytes", "bytes"},
		{"experiments.artifact_computed_frac", "frac"},
		{"dcrmd.ready_s", "s"},
		{"dcrmd.healthz_rtt_ms", "ms"},
		{"dcrmd.job_cold_p50_s", "s"},
		{"dcrmd.job_warm_p50_ms", "ms"},
		{"dcrmd.job_warm_p95_ms", "ms"},
		{"dcrmd.restart_s", "s"},
		// Go runtime.
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cpu_frac", "frac"},
	}
	for _, m := range cpuModules {
		out = append(out, metricDef{"cpu." + m, "frac"})
	}
	out = append(out,
		metricDef{"cpu.runtime", "frac"},
		metricDef{"cpu.other", "frac"},
		metricDef{"ecc.secded_ns_per_word", "ns"},
		metricDef{"trace.overhead_frac", "frac"},
	)
	return out
}()
