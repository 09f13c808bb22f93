//! The metrics the benchmark prints, by name and unit. `BENCHMARK.json`
//! at the repository root lists the same names (a test checks it).

/// An end-to-end metric: `(name, unit)`. All come from the untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("job_iters_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// A per-layer metric: `(name, unit)`. All come from the traced run;
/// a layer a workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("netsim.rate.secs", "s"),
    ("netsim.rate.steps", "count"),
    ("netsim.rate.ns_per_step", "ns"),
    ("dcqcn.rate_changes", "count"),
    ("dcqcn.cnps", "count"),
    ("dcqcn.ecn_marks", "count"),
    ("dcqcn.rate_changes_per_step", "ratio"),
    ("workload.iterations", "count"),
    ("workload.phase_changes", "count"),
    ("mlcc.fig1.secs", "s"),
    ("mlcc.table1.secs", "s"),
    ("mlcc.variants.secs", "s"),
    ("mlcc.shard.fluid.secs", "s"),
    ("mlcc.shard.packet.secs", "s"),
    ("mlcc.chaos.secs", "s"),
    ("topology.partition.secs", "s"),
    ("topology.partition.components", "count"),
    ("netsim.fluid.secs", "s"),
    ("netsim.fluid.events", "count"),
    ("netsim.fluid.ns_per_event", "ns"),
    ("netsim.alloc.calls", "count"),
    ("netsim.alloc.iterations", "count"),
    ("netsim.alloc.iters_per_call", "ratio"),
    ("netsim.packet.secs", "s"),
    ("netsim.packet.events", "count"),
    ("netsim.packet.ns_per_event", "ns"),
    ("telemetry.merge.secs", "s"),
    ("telemetry.merge.events", "count"),
    ("faults.compile.secs", "s"),
    ("telemetry.events", "count"),
    ("telemetry.record.secs", "s"),
    ("telemetry.export.secs", "s"),
    ("telemetry.replay.secs", "s"),
    ("telemetry.replay.ns_per_event", "ns"),
    ("diagnostics.analyze.secs", "s"),
    ("diagnostics.tracks.secs", "s"),
    ("diagnostics.health.secs", "s"),
    ("diagnostics.fairness.secs", "s"),
    ("diagnostics.interleave.secs", "s"),
    ("diagnostics.attribution.secs", "s"),
    ("diagnostics.recovery.secs", "s"),
    ("diagnostics.watchdog.secs", "s"),
    ("diagnostics.watchdog.alerts", "count"),
    ("bench.check.secs", "s"),
    ("telemetry.overhead_pct", "%"),
    ("unattributed.secs", "s"),
    ("paper_err_pct", "%"),
    ("trace_mb", "MiB"),
];

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
