//! The metric names and units this binary emits. `BENCHMARK.json` at the
//! repository root declares the same lists (with direction and bound);
//! `tests/contract.rs` holds the two together.

/// Tracing off, one value per workload. Order is the order of emission.
pub const END_TO_END: [(&str, &str); 2] = [("job_wall_s", "s"), ("setup_s", "s")];

/// Tracing on, one value per workload; 0 where a layer does nothing.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("peak_rss_mb", "MB"),
    ("adgen.gen_s", "s"),
    ("adgen.events", "count"),
    ("core.compile_ms", "ms"),
    ("core.pushed_ops", "count"),
    ("core.pushed_partials", "count"),
    ("core.bridge_decode_s", "s"),
    ("core.bridge_encode_s", "s"),
    ("core.span_s", "s"),
    ("temporal.botelim_events_per_s", "1/s"),
    ("temporal.labels_events_per_s", "1/s"),
    ("temporal.gentrain_events_per_s", "1/s"),
    ("temporal.featsel_events_per_s", "1/s"),
    ("temporal.modelgen_events_per_s", "1/s"),
    ("temporal.scoring_events_per_s", "1/s"),
    ("temporal.rt_push_us", "us"),
    ("temporal.rt_punct_ms", "ms"),
    ("temporal.span_s", "s"),
    ("punct_p50_ms", "ms"),
    ("punct_p95_ms", "ms"),
    ("punct_samples", "count"),
    ("mapreduce.map_s", "s"),
    ("mapreduce.shuffle_s", "s"),
    ("mapreduce.reduce_s", "s"),
    ("mapreduce.shuffle_bytes", "B"),
    ("mapreduce.spill_bytes", "B"),
    ("mapreduce.spill_extents", "count"),
    ("mapreduce.partition_skew", "x"),
    ("mapreduce.task_retries", "count"),
    ("mapreduce.transport_s", "s"),
    ("mapreduce.workers_lost", "count"),
    ("mapreduce.heartbeats_missed", "count"),
    ("mapreduce.span_s", "s"),
    ("relation.extent_encode_mb_s", "MB/s"),
    ("relation.extent_decode_mb_s", "MB/s"),
    ("relation.extent_verify_mb_s", "MB/s"),
    ("relation.span_s", "s"),
    ("job_span_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead", "x"),
];
