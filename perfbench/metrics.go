package main

// metricDef names one reported figure with its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the figures a user of starperfd sees that are steady
// enough from run to run to gate a change, reported by every untraced
// run of every workload. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"ack_p50_ms", "ms"},
	{"peak_ops_s", "ops/s"},
	{"peak_rss_mb", "MB"},
}

// tails are end-to-end figures every untraced run prints but does not
// report in its result line: on a shared 2-CPU host their run-to-run
// spread (a third to three quarters of the median) exceeds any bound a
// gate may use. error_ratio is the result line's failed/attempted.
var tails = []metricDef{
	{"latency_p99_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"error_ratio", "ratio"},
}

// perLayer are the traced run's per-layer figures, reported by every
// traced run of every workload; a layer a workload does not exercise
// reports 0. Replay-derived times are estimates (see trace.go).
var perLayer = []metricDef{
	// generator: validity only
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.conn_wait_p99_ms", "ms"},
	{"gen.timer_overshoot_p50_ms", "ms"},
	// client: root spans, one per HTTP exchange
	{"http.predict_p50_us", "us"},
	{"http.predict_p99_us", "us"},
	{"http.bounds_p50_us", "us"},
	{"http.bounds_p99_us", "us"},
	{"http.simulate_p50_us", "us"},
	{"http.simulate_p99_us", "us"},
	{"http.batch_p50_us", "us"},
	{"http.batch_p99_us", "us"},
	{"http.poll_p50_us", "us"},
	{"http.poll_p99_us", "us"},
	{"client.polls_per_job", "count"},
	// internal/server
	{"server.self_us", "us"},
	{"server.errors", "count"},
	{"server.shed", "count"},
	{"server.breaker_rejected", "count"},
	// internal/jobs
	{"jobs.hash_us", "us"},
	{"jobs.submitted", "count"},
	{"jobs.deduped", "count"},
	{"jobs.rejected", "count"},
	{"jobs.exec_mean_us", "us"},
	// internal/cache
	{"cache.hit_ratio", "ratio"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	// internal/model
	{"model.evaluate_p50_us", "us"},
	{"model.evaluate_p99_us", "us"},
	{"model.iterations", "count"},
	{"model.allocs", "count"},
	// internal/bounds
	{"bounds.evaluate_us", "us"},
	{"bounds.allocs", "count"},
	// internal/desim
	{"desim.run_ms", "ms"},
	{"desim.ns_per_cycle", "ns"},
	{"desim.allocs_per_run", "count"},
	// internal/journal
	{"journal.commits", "count"},
	{"journal.records_per_commit", "count"},
	{"journal.commit_mean_us", "us"},
	{"journal.syncs", "count"},
	// internal/server batch.go
	{"batch.items", "count"},
	{"batch.shed", "count"},
	// internal/cluster
	{"cluster.forward_ratio", "ratio"},
	{"cluster.forward_errors", "count"},
	{"cluster.failovers", "count"},
	{"cluster.local_fallbacks", "count"},
	{"cluster.successors_ns", "ns"},
	// tracing itself
	{"trace.overhead_p50_ms", "ms"},
}
