package main

// metricDef names one reported metric. Every end-to-end metric here must
// match BENCHMARK.json's end_to_end list and every per-layer one its
// per_layer list; TestMetricsMatchBenchmarkJSON checks both.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the bounded metrics, reported from the untraced run: what
// running rrqd costs its operator in start-up time, memory and allocation
// per request. None can read 0 on a passing run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"alloc_kb_per_req", "KB", "lower"},
}

// clientTimings are what a client of the untraced run waits for. They are
// printed beside the end-to-end metrics, but BENCHMARK.json lists them as
// unbounded per-layer metrics: the measuring machine's speed changes for
// minutes at a time, and their spread over ten runs reached 0.2 to 0.3,
// beyond any bound of 0.10 (bench/README.md has the measurements).
var clientTimings = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
}

// perLayer are the traced invocation's metrics: the client timings, then
// the traced run's, named after the repo's modules. A layer a workload
// does not exercise reads 0.
var perLayer = append(append([]metricDef(nil), clientTimings...), []metricDef{
	{"http.transport_us_p50", "us", "lower"},
	{"http.transport_us_p99", "us", "lower"},
	{"http.resp_bytes_mean", "bytes", "lower"},
	{"http.write_p50_ms", "ms", "lower"},
	{"server.handler_us_p50", "us", "lower"},
	{"server.handler_us_p99", "us", "lower"},
	{"server.self_us_p50", "us", "lower"},
	{"server.self_us_mean", "us", "lower"},
	{"server.self_hit_us_p50", "us", "lower"},
	{"server.dedup_ratio", "ratio", "higher"},
	{"admission.rejected", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.hit_us_p50", "us", "lower"},
	{"cache.entries", "count", "higher"},
	{"index.solve_us_p50", "us", "lower"},
	{"index.solve_us_p99", "us", "lower"},
	{"index.plane_hit_ratio", "ratio", "higher"},
	{"index.build_s", "s", "lower"},
	{"index.maintain_us_mean", "us", "lower"},
	{"core.ept.planes_us_mean", "us", "lower"},
	{"core.ept.insert_us_mean", "us", "lower"},
	{"core.ept.collect_us_mean", "us", "lower"},
	{"core.sweep.planes_us_mean", "us", "lower"},
	{"core.sweep.sweep_us_mean", "us", "lower"},
	{"core.planes_built_per_solve", "count", "lower"},
	{"core.planes_inserted_per_solve", "count", "lower"},
	{"core.splits_per_solve", "count", "lower"},
	{"core.pieces_per_solve", "count", "lower"},
	{"core.allocs_per_solve", "count", "lower"},
	{"core.bytes_per_solve", "bytes", "lower"},
	{"core.marshal_us_mean", "us", "lower"},
	{"wal.sync_us_per_append", "us", "lower"},
	{"wal.appends", "count", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.recover_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}...)

// sample is one metric reading with the number of observations behind it
// (0 when it is not an aggregate) and, for a percentile, how many of them
// lie beyond it.
type sample struct {
	value  float64
	n      int
	beyond int
}
