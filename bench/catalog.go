package main

// The metric catalogue. BENCHMARK.json at the repository root declares
// the same names and units (bench_test.go asserts the two agree); the
// "moves" column of bench/README.md says which end-to-end metric each
// layer metric is expected to move on which workload.

type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_mbps", "MB/s"},
	{"op_p50_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is one entry per layer measurement; the prefix is the module
// (internal/<prefix>) the number belongs to. A layer that is not on a
// workload's path reads 0 there (the live layers on sim-eval, the sim
// layers on live-*).
var perLayer = []metricDef{
	{"stripe.decompose_ns_per_op", "ns"},
	{"stripe.subs_per_op", "count"},
	{"stripe.fragments_per_op", "count"},
	{"stripe.fragment_ws_mb", "MB"},

	{"client.cpu_us_per_op", "us"},
	{"client.op_p95_us", "us"},
	{"client.op_p99_us", "us"},
	{"client.op_max_ms", "ms"},

	{"pfsnet.server_cpu_us_per_op", "us"},
	{"pfsnet.self_us_per_op", "us"},
	{"pfsnet.allocs_per_op", "count"},
	{"pfsnet.alloc_bytes_per_op", "B"},
	{"pfsnet.fragment_writes", "count"},
	{"pfsnet.fragment_reads", "count"},
	{"pfsnet.bridge_log_mb", "MB"},
	{"pfsnet.flush_mb", "MB"},
	{"pfsnet.flush_s", "s"},

	{"logstore.covered_us_per_op", "us"},
	{"logstore.busy_us_per_op", "us"},
	{"logstore.calls_per_op", "count"},
	{"logstore.write_amp", "ratio"},
	{"logstore.space_amp", "ratio"},
	{"logstore.checkpoints", "count"},
	{"logstore.compactions", "count"},
	{"logstore.reopen_ms", "ms"},
	{"logstore.replayed_records", "count"},

	{"layers.op_mean_us", "us"},
	{"obs.xtrace_overhead_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.build_s", "s"},

	{"sim.events_per_s", "1/s"},
	{"cluster.host_us_per_req_stock", "us"},
	{"cluster.host_us_per_req_ibridge", "us"},
	{"core.host_us_per_req_delta", "us"},
	{"core.write_gain_65k_pct", "%"},
	{"core.ssd_fraction_65k_pct", "%"},
	{"core.fidelity_err_pct", "%"},
	{"experiments.eval_wall_s", "s"},
	{"experiments.eval_cpu_s", "s"},
	{"experiments.eval_rss_mb", "MB"},
	{"experiments.tables", "count"},
}

// metrics is one run's measurements by catalogue name.
type metrics map[string]float64

// zeroed returns a metrics map holding 0 for every name in defs, so a
// run that skips a layer still prints that layer's names.
func zeroed(defs []metricDef) metrics {
	m := make(metrics, len(defs))
	for _, d := range defs {
		m[d.name] = 0
	}
	return m
}
