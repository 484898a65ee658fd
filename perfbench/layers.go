package main

// layerMetrics is every per-layer metric a traced run reports, with its
// unit, in BENCHMARK.json order. A workload that does not exercise a layer
// reports its metrics as 0 (README.md lists which workload fills which).
var layerMetrics = []struct{ name, unit string }{
	{"scene.generate_ms", "ms"},
	{"scene.triangles_ms_p50", "ms"},
	{"kdtree.build_ms_p50", "ms"},
	{"kdtree.build_ms_p90", "ms"},
	{"kdtree.build_w1_ms_p50", "ms"},
	{"kdtree.speedup_w2", "x"},
	{"kdtree.nodes", "count"},
	{"kdtree.leaf_refs", "count"},
	{"kdtree.max_depth", "count"},
	{"kdtree.allocs_per_build", "count"},
	{"kdtree.bytes_per_build", "bytes"},
	{"kdtree.range_us_p50", "us"},
	{"kdtree.nn_us_p50", "us"},
	{"render.render_ms_p50", "ms"},
	{"render.ns_per_ray", "ns"},
	{"render.rays", "count"},
	{"render.hits", "count"},
	{"render.demotion_ratio", "ratio"},
	{"harness.session_ms_p50", "ms"},
	{"harness.loop_self_ms", "ms"},
	{"autotune.best_ms", "ms"},
	{"autotune.distinct_configs", "count"},
	{"autotune.converged_at", "count"},
	{"autotune.censored", "count"},
	{"serve.read_ms_p50", "ms"},
	{"serve.read_ms_p90", "ms"},
	{"serve.write_ms_p50", "ms"},
	{"serve.server_ms_p50", "ms"},
	{"serve.transport_ms_p50", "ms"},
	{"serve.spine_ms_p50", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.builds_ok", "count"},
	{"serve.resp_bytes_p50", "bytes"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.bench_self_ms", "ms"},
	{"trace.kdtree_self_ms", "ms"},
	{"trace.render_self_ms", "ms"},
	{"trace.harness_self_ms", "ms"},
	{"trace.serve_self_ms", "ms"},
}

// completeLayers returns exactly the metrics of layerMetrics: measured
// values where the workload set them, 0 for layers it does not exercise.
func completeLayers(measured map[string]metric) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m := measured[lm.name]
		out[lm.name] = metric{m.Value, lm.unit}
	}
	return out
}
