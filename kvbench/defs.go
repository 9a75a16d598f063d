package main

// metricDef names one metric of the result object. BENCHMARK.json carries
// the same names with their direction and regression bound; the smoke
// test holds the two lists together.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the store would see, reported by a timed run
// (-trace 0) on every workload: the metrics steady enough on this
// machine to carry a regression bound in BENCHMARK.json.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// reportedOnly is the rest of what a user would see. These are printed,
// stored in every result file and shown by -compare, but carry no bound:
// their run-to-run spread on this machine exceeds any bound the contract
// allows (README, "Spread"), or they are 0 or a step of a ladder.
var reportedOnly = []metricDef{
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"max_rate_ok", "1/s"},
	{"fail_share", "ratio"},
	{"space_amp", "ratio"},
}

// perLayer is the metrics of single layers, reported by a traced run
// (-trace 1). A layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"resp.decode_ns", "ns"},
	{"resp.encode_ns", "ns"},
	{"resp.allocs_per_op", "count"},
	{"server.loopback_rtt_ns", "ns"},
	{"server.self_ns", "ns"},
	{"server.sheds", "count"},
	{"xhash.bytes_ns", "ns"},
	{"index.probe_ns", "ns"},
	{"index.insert_retries", "count"},
	{"epoch.acquire_release_ns", "ns"},
	{"epoch.refresh_ns", "ns"},
	{"epoch.bumps", "count"},
	{"hlog.allocate_ns", "ns"},
	{"hlog.write_amp", "ratio"},
	{"faster.session_ns", "ns"},
	{"faster.sharded_ns", "ns"},
	{"faster.allocs_per_op", "count"},
	{"faster.in_place_ratio", "ratio"},
	{"faster.failed_cas", "count"},
	{"faster.rcu_copies", "count"},
	{"faster.rc_hit_ratio", "ratio"},
	{"faster.rc_fills", "count"},
	{"faster.rc_invalidations", "count"},
	{"faster.io_submitted", "count"},
	{"faster.io_coalesced_ratio", "ratio"},
	{"faster.io_queue_wait_us", "us"},
	{"faster.io_service_us", "us"},
	{"faster.compactions", "count"},
	{"faster.compact_write_amp", "ratio"},
	{"device.reads_per_get", "count"},
	{"device.read_bytes_per_get", "B"},
	{"device.read_busy_ns", "ns/get"},
	{"device.self_ns", "ns"},
	{"device.writes", "count"},
	{"device.write_bytes", "B"},
	{"device.syncs", "count"},
	{"sched.latency_p99_us", "us"},
	{"gc.pause_total_ms", "ms"},
	{"goroutines", "count"},
	{"depth.tcp_ns", "ns"},
	{"depth.tcp_allocs_per_op", "count"},
	{"ledger.residual_ns", "ns"},
	{"ledger.residual_pct", "%"},
	{"trace_overhead_pct", "%"},
}
