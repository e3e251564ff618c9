//! Metric names, units and the result line.
//!
//! The names here are the contract with `BENCHMARK.json` at the repository
//! root: `end_to_end` lists [`END_TO_END`], `per_layer` lists
//! [`per_layer`]. A test keeps the two in step.

use std::collections::BTreeMap;

/// Every bundled driver, in the order the workloads run them.
pub const ALL_DRIVERS: [&str; 7] = [
    "pro1000",
    "pro100",
    "rtl8029",
    "pcnet",
    "ensoniq",
    "ac97",
    "clean_nic",
];

/// End-to-end metrics: what a user of a campaign sees.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("paths_per_s", "1/s"),
    ("execs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("covered_blocks", "count"),
    ("bugs_found", "count"),
];

/// Per-layer metrics without a driver suffix.
const LAYERS: [(&str, &str); 63] = [
    ("drivers.build_s", "s"),
    ("isa.analyze_s", "s"),
    ("exerciser.quanta", "count"),
    ("exerciser.paths_started", "count"),
    ("exerciser.paths_infeasible", "count"),
    ("exerciser.infeasible_ratio", "ratio"),
    ("exerciser.us_per_quantum", "us"),
    ("exerciser.peak_states", "count"),
    ("exerciser.states_dropped", "count"),
    ("symvm.insns", "count"),
    ("symvm.insns_per_s", "1/s"),
    ("symvm.max_cow_depth", "count"),
    ("symvm.symbols", "count"),
    ("solver.queries", "count"),
    ("solver.queries_per_path", "ratio"),
    ("solver.fast_hits", "count"),
    ("solver.full", "count"),
    ("solver.full_ratio", "ratio"),
    ("solver.cache_hits", "count"),
    ("solver.model_reuse", "count"),
    ("solver.unsat_subset", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("solver.cache_evictions", "count"),
    ("solver.sliced", "count"),
    ("solver.slice_components", "count"),
    ("solver.session_probes", "count"),
    ("solver.batch_flushes", "count"),
    ("solver.batched_verdicts", "count"),
    ("solver.witness_hit_ratio", "ratio"),
    ("solver.portfolio_races", "count"),
    ("solver.rewrite_reductions", "count"),
    ("expr.interner_hit_ratio", "ratio"),
    ("expr.interner_misses", "count"),
    ("faults.injected", "count"),
    ("faults.lifecycle", "count"),
    ("checkers.bug_sightings", "count"),
    ("checkers.distinct_bugs", "count"),
    ("parallel.cpu_per_wall", "ratio"),
    ("parallel.speedup", "ratio"),
    ("checkpoint.written", "count"),
    ("checkpoint.journal_records", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.overhead_s", "s"),
    ("tracestore.persist_s", "s"),
    ("tracestore.artifacts", "count"),
    ("replay.verify_s", "s"),
    ("replay.reproduced_ratio", "ratio"),
    ("replay.known_gaps", "count"),
    ("hybrid.fuzz_execs", "count"),
    ("hybrid.escalations", "count"),
    ("hybrid.escalation_ratio", "ratio"),
    ("vm.concrete_insns", "count"),
    ("fuzz.mutate_s", "s"),
    ("replay.runner_reset_s", "s"),
    ("vm.run_fast_s", "s"),
    ("vm.insns_per_s", "1/s"),
    ("fleet.serve_s", "s"),
    ("fleet.frames", "count"),
    ("fleet.frame_bytes", "bytes"),
    ("fleet.workers_spawned", "count"),
    ("fleet.leases_reassigned", "count"),
    ("fleet.shards_stolen", "count"),
];

/// Per-layer metrics reported once per bundled driver (`<name>.<driver>`).
const PER_DRIVER: [(&str, &str); 3] = [
    ("exerciser.test_s", "s"),
    ("solver.full", "count"),
    ("solver.cache_hits", "count"),
];

/// Every per-layer metric, in output order, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (name, unit) in PER_DRIVER {
        for driver in ALL_DRIVERS {
            out.push((format!("{name}.{driver}"), unit));
        }
    }
    out.push(("bench.trace_overhead_ratio".to_string(), "ratio"));
    out
}

/// Named values collected by one traced pass. Absent names read as 0.
pub type Layers = BTreeMap<String, f64>;

/// Adds `v` to the named value.
pub fn add(layers: &mut Layers, name: &str, v: f64) {
    *layers.entry(name.to_string()).or_insert(0.0) += v;
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `values`, or 0 when there are none.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
