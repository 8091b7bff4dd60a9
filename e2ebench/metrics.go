package main

// metricDef is one metric of the catalog BENCHMARK.json lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of encore sees, reported by every
// workload with tracing off. Each workload maps them onto its own
// operations (README.md lists the mapping). Each workload also prints
// op_tail_ms, its op's tail latency, and items_per_s, its throughput, but
// those are not gated: on a shared two-core machine serve-mixed's tail
// moved by half and its throughput by more between runs, beyond any
// bound the benchmark may set.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"update_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_item", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"detect_recall", "ratio", "higher", 0.05},
}

// perLayer are the traced run's metrics. A workload that bypasses a
// layer reports 0 for it.
var perLayer = []metricDef{
	{"sysimage.read_us", "us", "lower", 0},
	{"sysimage.decode_us", "us", "lower", 0},
	{"sysimage.decode_allocs", "count", "lower", 0},
	{"sysimage.bytes_per_image", "bytes", "lower", 0},
	{"assemble.training_ms", "ms", "lower", 0},
	{"assemble.delta_ms", "ms", "lower", 0},
	{"rules.infer_ms", "ms", "lower", 0},
	{"rules.infer_delta_ms", "ms", "lower", 0},
	{"rules.candidates", "count", "lower", 0},
	{"rules.kept", "count", "higher", 0},
	{"rules.kept_ratio", "ratio", "higher", 0},
	{"learn.op_self_ms", "ms", "lower", 0},
	{"detect.compile_ms", "ms", "lower", 0},
	{"planio.encode_us", "us", "lower", 0},
	{"planio.plan_bytes", "bytes", "lower", 0},
	{"planio.load_us", "us", "lower", 0},
	{"detect.check_us", "us", "lower", 0},
	{"detect.check_allocs", "count", "lower", 0},
	{"detect.findings_per_image", "count", "higher", 0},
	{"detect.render_us", "us", "lower", 0},
	{"fleet.load_us", "us", "lower", 0},
	{"fleet.load_self_us", "us", "lower", 0},
	{"fleet.busy_ratio", "ratio", "higher", 0},
	{"fleet.steals", "count", "lower", 0},
	{"fleet.high_water_mb", "MB", "lower", 0},
	{"serve.server_p50_ms", "ms", "lower", 0},
	{"serve.server_tail_ms", "ms", "lower", 0},
	{"serve.client_p50_ms", "ms", "lower", 0},
	{"serve.max_rps", "1/s", "higher", 0},
	{"serve.swap_ms", "ms", "lower", 0},
	{"serve.non2xx", "count", "lower", 0},
	{"serve.gen_late_ms", "ms", "lower", 0},
	{"serve.backlog_end.r250", "count", "lower", 0},
	{"serve.backlog_end.r500", "count", "lower", 0},
	{"serve.backlog_end.r1000", "count", "lower", 0},
	{"serve.backlog_end.r2000", "count", "lower", 0},
	{"alert.publish_us", "us", "lower", 0},
	{"alert.published", "count", "higher", 0},
	{"alert.suppressed", "count", "lower", 0},
	{"alert.dropped", "count", "lower", 0},
	{"alert.delivered", "count", "higher", 0},
	{"runtime.gc_cycles", "count/op", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
