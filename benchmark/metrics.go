package main

// metricDef names one metric as BENCHMARK.json declares it. bound is the
// relative worsening that counts as a regression (end-to-end only).
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// endToEnd is what a fusion-centre operator sees. failed_round_frac is
// not in the table: its expected value is 0, so it is reported as the
// result's failed/attempted counts instead of a bounded metric.
var endToEnd = []metricDef{
	{"rounds_per_s", "1/s", true, 0.20},
	{"round_p50_ms", "ms", false, 0.20},
	{"cpu_ms_per_round", "ms", false, 0.20},
	{"allocs_per_round", "count", false, 0.02},
	{"alloc_kb_per_round", "KB", false, 0.02},
	{"wire_bytes_per_round", "B", false, 0.02},
	{"test_mse", "mse", false, 0.20},
	{"setup_s", "s", false, 0.25},
}

// perLayer is the ledger of the traced pass; a layer is a Go package.
var perLayer = []metricDef{
	{name: "node.round_p95_ms", unit: "ms"},
	{name: "node.round_samples", unit: "count", higher: true},
	{name: "node.broadcast_ms", unit: "ms"},
	{name: "node.broadcast_self_ms", unit: "ms"},
	{name: "node.collect_ms", unit: "ms"},
	{name: "node.tail_ms", unit: "ms"},
	{name: "node.engine_self_ms", unit: "ms"},
	{name: "node.admitted_frac", unit: "frac", higher: true},
	{name: "node.late_uploads_per_round", unit: "count"},
	{name: "node.vehicle_compute_ms", unit: "ms"},
	{name: "node.vehicle_send_us", unit: "us"},
	{name: "transport.send_us_per_frame", unit: "us"},
	{name: "transport.send_ms_per_round", unit: "ms"},
	{name: "transport.frames_per_round", unit: "count"},
	{name: "transport.bytes_per_broadcast", unit: "B"},
	{name: "transport.bytes_per_upload", unit: "B"},
	{name: "transport.pipe_rtt_us", unit: "us"},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "protocol.write_us_broadcast", unit: "us"},
	{name: "protocol.read_us_broadcast", unit: "us"},
	{name: "protocol.write_us_upload", unit: "us"},
	{name: "protocol.read_us_upload", unit: "us"},
	{name: "protocol.allocs_per_frame", unit: "count"},
	{name: "nn.train_ms", unit: "ms"},
	{name: "nn.train_allocs", unit: "count"},
	{name: "fl.distill_ms", unit: "ms"},
	{name: "fl.distill_allocs", unit: "count"},
	{name: "core.newscheme_ms", unit: "ms"},
	{name: "core.upload_ms", unit: "ms"},
	{name: "core.upload_allocs", unit: "count"},
	{name: "core.ingest_us_per_upload", unit: "us"},
	{name: "core.aggregate_streamed_ms", unit: "ms"},
	{name: "core.aggregate_ms", unit: "ms"},
	{name: "core.aggregate_allocs", unit: "count"},
	{name: "reedsolomon.ingest_us_per_arrival", unit: "us"},
	{name: "reedsolomon.finalize_ms", unit: "ms"},
	{name: "reedsolomon.decodebatch_ms", unit: "ms"},
	{name: "reedsolomon.decode_allocs", unit: "count"},
	{name: "reedsolomon.fallback_slot_frac", unit: "frac"},
	{name: "lagrange.encode_ms", unit: "ms"},
	{name: "lagrange.encode_allocs", unit: "count"},
	{name: "field.dotacc_ns_per_elem", unit: "ns"},
	{name: "field.muladdvec_ns_per_elem", unit: "ns"},
	{name: "obs.trace_overhead_frac", unit: "frac"},
	{name: "trace.overhead_frac", unit: "frac"},
	{name: "recon.tail_covered_frac", unit: "frac", higher: true},
	{name: "recon.vehicle_covered_frac", unit: "frac", higher: true},
	{name: "host.calib_ms", unit: "ms"},
	{name: "host.steal_frac", unit: "frac"},
}
