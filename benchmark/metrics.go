package main

// The metric registry: the one list of every name the benchmark prints.
// BENCHMARK.json repeats these names (bench_test.go holds the two
// equal); README.md gives the long definitions.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a querying user sees. Every workload reports all
// eleven from its untraced run. BENCHMARK.json holds one bound per
// metric, not per workload, so a bound is the widest any workload
// needs: three times the largest quartile spread measured over ten
// seeds (README.md has the table), which on the wall-clock metrics is
// the host's drift and reaches the contract's cap of a quarter.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ok_ops_share", "ratio", "higher", 0.002},
	{"recall", "ratio", "higher", 0.002},
	{"ttft_ms", "ms", "lower", 0.25},
	{"ttlt_ms", "ms", "lower", 0.25},
	{"traffic_kb_per_op", "kB", "lower", 0.05},
	{"result_tuples_per_s", "1/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"events_per_wall_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_bytes_per_node", "B", "lower", 0.05},
}

// simExact names the end-to-end metrics that depend only on the
// protocol on sim-* workloads: two same-seed runs must agree exactly.
var simExact = []string{"ok_ops_share", "recall", "ttft_ms", "ttlt_ms", "traffic_kb_per_op"}

// perLayer is what the traced run reports. A metric reads 0 on a
// workload whose traced run does not exercise its layer (README.md
// lists each metric's home workloads).
var perLayer = []metricDef{
	// client spans: self time per span name, and what they add up to.
	{"span.setup.build.self_ms", "ms", "lower", 0},
	{"span.setup.load.self_ms", "ms", "lower", 0},
	{"span.setup.index.self_ms", "ms", "lower", 0},
	{"setup.publish_tuples_per_s", "1/s", "higher", 0},
	{"span.client.publish.self_ms", "ms", "lower", 0},
	{"span.client.get.self_ms", "ms", "lower", 0},
	{"span.client.renew.self_ms", "ms", "lower", 0},
	{"span.client.query.self_ms", "ms", "lower", 0},
	{"span.client.query.submit.self_ms", "ms", "lower", 0},
	{"span.client.query.first.self_ms", "ms", "lower", 0},
	{"span.client.query.drain.self_ms", "ms", "lower", 0},
	{"span.client.sim_run.self_ms", "ms", "lower", 0},
	{"client.span_coverage_share", "ratio", "higher", 0},
	{"client.ttlt_p90_ms", "ms", "lower", 0},
	{"client.t30_ms", "ms", "lower", 0},
	{"client.get_p50_us", "us", "lower", 0},
	{"client.publish_p50_us", "us", "lower", 0},
	{"client.sql_p50_ms", "ms", "lower", 0},
	{"client.generator_lag_ms", "ms", "lower", 0},

	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},

	{"simnet.events", "count", "lower", 0},
	{"simnet.ns_per_event", "ns", "lower", 0},
	{"simnet.bare_events_per_wall_s", "1/s", "higher", 0},
	{"simnet.bytes_per_node", "B", "lower", 0},
	{"simnet.max_inbound_mb", "MB", "lower", 0},

	{"can.bootstrap_s", "s", "lower", 0},
	{"can.lookup_hops_mean", "count", "lower", 0},
	{"can.lookup_sim_ms_p50", "ms", "lower", 0},
	{"can.lookup_wall_us", "us", "lower", 0},
	{"can.neighbors_mean", "count", "lower", 0},
	{"can.maintenance_msgs_per_node_s", "1/s", "lower", 0},
	{"chord.lookup_hops_mean", "count", "lower", 0},
	{"chord.lookup_wall_us", "us", "lower", 0},

	{"multicast.msgs_per_node", "count", "lower", 0},
	{"multicast.coverage_sim_ms", "ms", "lower", 0},
	{"multicast.reach_share", "ratio", "higher", 0},

	{"storage.put_ns", "ns", "lower", 0},
	{"storage.get_ns", "ns", "lower", 0},
	{"storage.scan_ns_per_item", "ns", "lower", 0},
	{"storage.expire_ns_per_item", "ns", "lower", 0},
	{"storage.bytes_per_item", "B", "lower", 0},
	{"storage.evictions", "count", "lower", 0},
	{"storage.puts_throttled", "count", "lower", 0},

	{"provider.put_sim_ms_p50", "ms", "lower", 0},
	{"provider.get_sim_ms_p50", "ms", "lower", 0},
	{"provider.msgs_per_put", "count", "lower", 0},
	{"provider.msgs_per_get", "count", "lower", 0},
	{"provider.puts_dropped", "count", "lower", 0},

	{"core.stage_multicast_ms", "ms", "lower", 0},
	{"core.stage_executor_ms", "ms", "lower", 0},
	{"core.stage_scan_ms", "ms", "lower", 0},
	{"core.stage_rehash_ms", "ms", "lower", 0},
	{"core.stage_dhtget_ms", "ms", "lower", 0},
	{"core.stage_bloom_ms", "ms", "lower", 0},
	{"core.stage_indexscan_ms", "ms", "lower", 0},
	{"core.stage_resultflush_ms", "ms", "lower", 0},
	{"core.stage_creditstall_ms", "ms", "lower", 0},
	{"core.stage_collect_ms", "ms", "lower", 0},
	{"core.ttlt_ms_symhash", "ms", "lower", 0},
	{"core.ttlt_ms_fetch", "ms", "lower", 0},
	{"core.ttlt_ms_semi", "ms", "lower", 0},
	{"core.ttlt_ms_bloom", "ms", "lower", 0},
	{"core.traffic_mb_symhash", "MB", "lower", 0},
	{"core.traffic_mb_fetch", "MB", "lower", 0},
	{"core.traffic_mb_semi", "MB", "lower", 0},
	{"core.traffic_mb_bloom", "MB", "lower", 0},
	{"core.result_tuples_per_frame", "count", "higher", 0},
	{"core.credit_stalls", "count", "lower", 0},
	{"core.credit_grants", "count", "lower", 0},
	{"core.bloom_fallbacks", "count", "lower", 0},
	{"core.single_node_join_tuples_per_s", "1/s", "higher", 0},
	{"core.encode_allocs_per_frame", "count", "lower", 0},
	{"core.decode_allocs_per_frame", "count", "lower", 0},
	{"core.decode_tuples_per_s", "1/s", "higher", 0},

	{"wire.encode_ns_per_msg", "ns", "lower", 0},
	{"wire.decode_ns_per_msg", "ns", "lower", 0},
	{"wire.bytes_per_result_tuple", "B", "lower", 0},
	{"wire.wiresize_ns", "ns", "lower", 0},
	{"wire.wiresize_error_share", "ratio", "lower", 0},

	{"realnet.join_s", "s", "lower", 0},
	{"realnet.frames_per_batch", "count", "higher", 0},
	{"realnet.bytes_per_frame", "B", "lower", 0},
	{"realnet.drops", "count", "lower", 0},
	{"realnet.frames_per_s", "1/s", "higher", 0},
	{"realnet.rtt_us_p50", "us", "lower", 0},
	{"realnet.do_wait_us_p50", "us", "lower", 0},

	{"sql.parse_plan_us", "us", "lower", 0},
	{"sql.querysql_submit_us_p50", "us", "lower", 0},
	{"opt.choose_ns", "ns", "lower", 0},
	{"stats.refresh_us", "us", "lower", 0},
	{"stats.sketch_add_ns", "ns", "lower", 0},
	{"stats.maintenance_msgs_per_node_s", "1/s", "lower", 0},

	{"index.build_s", "s", "lower", 0},
	{"index.insert_us_p50", "us", "lower", 0},
	{"index.gets_per_range_query", "count", "lower", 0},
	{"index.range_ttlt_ms_p50", "ms", "lower", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.spans_per_query", "count", "lower", 0},
	{"trace.span_drops", "count", "lower", 0},
	{"admin.snapshot_us", "us", "lower", 0},
}

// workloadDef names one workload and why it exists. sim marks the
// workloads whose ttft, ttlt and traffic run on the simulated clock.
type workloadDef struct {
	Name string
	Why  string
	sim  bool
	run  func(*runCtx) *outcome
}

var workloads = []workloadDef{
	{"sim-join", "1024-node simulated CAN, the paper's 5.1 join under all four strategies: core executors, provider rehash puts and storage do the work; codecs, TCP, sql and index do none", true, runSimJoin},
	{"sim-scale", "9000-node simulated CAN with maintenance, stats and index tickers on, multicast scans and point gets: the event queue, keepalives, multicast and tickers dominate; joins and codecs do none", true, runSimScale},
	{"tcp-scan", "four nodes over loopback TCP streaming 50%-selective scans of a 150k-tuple table: large result frames load wire, realnet batching and the core result channel; routing, sql and index idle", false, runTCPScan},
	{"tcp-mixed", "same fleet, two clients mixing publish+confirm, renew, point get, SQL index range and GROUP BY: small messages, so per-message realnet/wire cost, sql, provider, storage expiry and index dominate", false, runTCPMixed},
}
