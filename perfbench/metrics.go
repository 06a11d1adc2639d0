package main

// The metric catalogue. BENCHMARK.json at the repository root lists the same
// names and units; TestCatalogueMatchesBenchmarkJSON keeps the two in step.

// metricDef names one metric. clock is "model" for simulated quantities of
// the modelled stack (deterministic on radar, graph and ooc), "wall" for
// times measured on the machine running the simulator, and "count" for
// plain counts.
type metricDef struct {
	name, unit, clock string
}

// endToEnd is printed by an untraced run (--trace 0), on every workload.
// fail_ratio is not here: it is failed/attempted of the result line, and a
// metric that is 0 on a correct run cannot carry a relative bound.
var endToEnd = []metricDef{
	{"model_time_us", "model_us", "model"},
	{"model_energy_uj", "model_uJ", "model"},
	{"throughput_per_s", "1/s", "wall"},
	{"latency_p50_us", "us", "wall"},
	{"latency_tail_us", "us", "wall"},
	{"setup_s", "s", "wall"},
	{"host_mem_mb", "MB", "wall"},
}

// perLayer is printed by a traced run (--trace 1), on every workload. A
// workload reports 0 for a metric whose layer it does not call. Wall
// "_us" metrics of a call are medians per call; model metrics and counts
// are medians per unit of work (frame, solve, pass or request).
var perLayer = []metricDef{
	// apps (radar)
	{"apps.stap.load_us", "us", "wall"},
	{"apps.sar.load_us", "us", "wall"},
	{"apps.stap.doppler_us", "us", "wall"},
	{"apps.stap.solve_us", "us", "wall"},
	{"apps.stap.inner_us", "us", "wall"},
	{"apps.sar.form_us", "us", "wall"},
	// mealibrt
	{"mealibrt.store_us", "us", "wall"},
	{"mealibrt.load_us", "us", "wall"},
	{"mealibrt.execute_us", "us", "wall"},
	{"mealibrt.launches", "count", "model"},
	{"mealibrt.overhead_model_us", "model_us", "model"},
	{"mealibrt.overhead_energy_uj", "model_uJ", "model"},
	{"mealibrt.host_idle_energy_uj", "model_uJ", "model"},
	// accel
	{"accel.exec_model_us", "model_us", "model"},
	{"accel.cu_model_us", "model_us", "model"},
	{"accel.op.FFT_model_us", "model_us", "model"},
	{"accel.op.RESHP_model_us", "model_us", "model"},
	{"accel.op.DOT_model_us", "model_us", "model"},
	{"accel.op.RESMP_model_us", "model_us", "model"},
	{"accel.op.AXPY_model_us", "model_us", "model"},
	{"accel.energy_uj", "model_uJ", "model"},
	{"accel.comps", "count", "model"},
	{"accel.dram_mb", "MB", "model"},
	{"accel.elided_mb", "MB", "model"},
	{"accel.noc_mb", "MB", "model"},
	{"accel.lm_spill_mb", "MB", "model"},
	{"accel.ooc_chunks", "count", "model"},
	{"accel.staged_mb", "MB", "model"},
	// sparse, multistack, noc, graph (graph)
	{"sparse.generate_s", "s", "wall"},
	{"multistack.shard_s", "s", "wall"},
	{"multistack.build_plans_s", "s", "wall"},
	{"multistack.step_us", "us", "wall"},
	{"multistack.compute_model_us", "model_us", "model"},
	{"multistack.exchange_model_us", "model_us", "model"},
	{"multistack.first_step_model_us", "model_us", "model"},
	{"multistack.exchange_kb", "KB", "model"},
	{"noc.link_energy_uj", "model_uJ", "model"},
	{"graph.bfs_iters", "count", "count"},
	// mealibd and its client (serve)
	{"mealibd.dial_us", "us", "wall"},
	{"mealibd.store_us", "us", "wall"},
	{"mealibd.execute_us", "us", "wall"},
	{"mealibd.load_us", "us", "wall"},
	{"mealibd.service_overhead_us", "us", "wall"},
	{"mealibd.batched_mean", "count", "model"},
	{"mealibd.refused", "count", "count"},
	{"serve.open_latency_p50_us", "us", "wall"},
	{"serve.open_latency_p99_us", "us", "wall"},
	{"serve.gen_lag_p99_us", "us", "wall"},
	// benchmark output checks and the per-layer self-time split
	{"bench.check_us", "us", "wall"},
	{"apps.self_us", "us", "wall"},
	{"mealibrt.self_us", "us", "wall"},
	{"multistack.self_us", "us", "wall"},
	{"mealibd.self_us", "us", "wall"},
	{"bench.self_us", "us", "wall"},
	{"trace.overhead_per_s", "1/s", "wall"},
}
