//! Concrete-executor benchmark: what does the superblock executor buy?
//!
//! For each bundled NIC driver, runs the pure symbolic engine and the pure
//! fuzzing phase of the hybrid pipeline (escalation and symbolic quanta
//! off), and compares instruction throughput: symbolic instructions per
//! second of the full engine vs concrete instructions per second of the
//! fuzz loop (scheduling, mutation, snapshot-reset, and kernel dispatch
//! included — this is the *usable* executor rate, not a dispatch
//! microbenchmark). Both engines are timed with `Instant` in nanoseconds,
//! and each driver's fuzz-only run is sized to take about 100 ms. That run
//! is timed three times and the fastest counts: the host's CPUs change
//! speed for seconds at a time, and the fastest of a few runs is the
//! campaign benchmark's rule for such a host (`campaign_bench/NOTES.md`).
//!
//! Every run appends an entry to the `BENCH_concrete.json` trajectory at
//! the repo root (`format: trajectory-v1`, one slot per rev, date and
//! mode). Gates, against the newest earlier entry of the same mode:
//! 1. concrete insns/s on each driver drops no more than 25% below it;
//! 2. every count column equals it (both engines are deterministic, so a
//!    moved count is a change of behaviour, not noise).
//!
//! And on every run:
//! 3. fuzzing covers blocks, and both engines find bugs;
//! 4. hybrid reaches its first bug no later (in scheduling quanta) than
//!    the symbolic-only run: the canned corpus finds a concrete bug
//!    during the first fuzz batch, before the first symbolic quantum.
//!
//! `--smoke` runs the pcnet subset for CI.

use std::time::Instant;

use ddt_bench::field;
use ddt_core::{Ddt, DdtConfig, DriverUnderTest, FuzzConfig};
use serde::Value;

/// Largest drop of concrete insns/s below the previous entry that passes.
const MAX_RATE_DROP: f64 = 0.25;

/// The columns that must not move between entries of the same mode.
const COUNT_COLUMNS: [&str; 8] = [
    "symbolic_insns",
    "symbolic_bugs",
    "symbolic_first_bug_quanta",
    "concrete_execs",
    "concrete_insns",
    "concrete_blocks",
    "concrete_bugs",
    "hybrid_first_bug_quanta",
];

/// Fuzz-only batches of 100 executions: an execution takes about 20 µs
/// on each NIC driver (2-vCPU host), so a run takes 70–100 ms.
const FUZZ_BATCHES: u64 = 40;

/// Timed fuzz-only runs per driver; the concrete rate is the fastest's.
const FUZZ_RUNS: usize = 3;

/// Instructions per second over a nanosecond wall time.
fn rate(insns: u64, wall_ns: u64) -> u64 {
    (insns as u128 * 1_000_000_000 / wall_ns.max(1) as u128) as u64
}

fn bench_driver(name: &'static str) -> Vec<(String, Value)> {
    let spec = ddt_drivers::driver_by_name(name).expect("bundled driver");
    let dut = DriverUnderTest::from_spec(&spec);
    let tool = Ddt::new(DdtConfig::default());

    let start = Instant::now();
    let sym = tool.test(&dut);
    let sym_ns = start.elapsed().as_nanos() as u64;

    // Pure fuzzing: no escalation, no symbolic quanta, no drain.
    let fuzz_only = FuzzConfig {
        batches: FUZZ_BATCHES,
        batch_size: 100,
        escalate: false,
        quanta_per_batch: 0,
        drain_frontier: false,
        ..FuzzConfig::default()
    };
    let runs: Vec<_> = (0..FUZZ_RUNS)
        .map(|_| {
            let start = Instant::now();
            let report = ddt_core::run_hybrid(&tool, &dut, &fuzz_only);
            (report, start.elapsed().as_nanos() as u64)
        })
        .collect();
    // The runs are seeded alike, so they do the same work.
    assert!(
        runs.iter().all(|(r, _)| r.stats.fuzz_insns == runs[0].0.stats.fuzz_insns),
        "{name}: fuzz-only runs retired different instruction counts"
    );
    let (conc, conc_ns) = runs.into_iter().min_by_key(|&(_, ns)| ns).expect("FUZZ_RUNS > 0");

    // The full pipeline, for time-to-first-bug: the canned seeds find a
    // concrete bug before the first symbolic quantum runs.
    let hybrid = ddt_core::run_hybrid(&tool, &dut, &FuzzConfig::default());

    let sym_rate = rate(sym.stats.insns, sym_ns);
    let conc_rate = rate(conc.stats.fuzz_insns, conc_ns);
    let speedup = (conc_rate as f64 / sym_rate.max(1) as f64 * 100.0).round() / 100.0;
    let u = Value::U64;
    vec![
        ("driver".into(), Value::Str(name.into())),
        ("symbolic_insns".into(), u(sym.stats.insns)),
        ("symbolic_wall_ns".into(), u(sym_ns)),
        ("symbolic_insns_per_sec".into(), u(sym_rate)),
        ("symbolic_bugs".into(), u(sym.bugs.len() as u64)),
        ("symbolic_first_bug_quanta".into(), u(sym.stats.quanta_to_first_bug)),
        ("concrete_execs".into(), u(conc.stats.fuzz_execs)),
        ("concrete_insns".into(), u(conc.stats.fuzz_insns)),
        ("concrete_wall_ns".into(), u(conc_ns)),
        ("concrete_insns_per_sec".into(), u(conc_rate)),
        ("concrete_blocks".into(), u(conc.stats.concrete_blocks)),
        ("concrete_bugs".into(), u(conc.stats.concrete_bugs)),
        ("speedup".into(), Value::F64(speedup)),
        ("hybrid_first_bug_quanta".into(), u(hybrid.stats.quanta_to_first_bug)),
    ]
}

fn num(row: &Value, key: &str) -> u64 {
    field(row, key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing column {key}"))
}

/// Checks one driver's row against the same driver's row of the previous
/// entry; returns the failures.
fn compare(row: &Value, prev: &Value) -> Vec<String> {
    let driver = field(row, "driver").and_then(Value::as_str).unwrap_or("?");
    let mut failures = Vec::new();
    let (now, before) = (num(row, "concrete_insns_per_sec"), num(prev, "concrete_insns_per_sec"));
    if (now as f64) < before as f64 * (1.0 - MAX_RATE_DROP) {
        failures.push(format!(
            "{driver}: concrete rate {now} insns/s is more than {:.0}% below the previous {before}",
            MAX_RATE_DROP * 100.0
        ));
    }
    for key in COUNT_COLUMNS {
        let (now, before) = (num(row, key), num(prev, key));
        if now != before {
            failures.push(format!("{driver}: {key} is {now}, the previous entry has {before}"));
        }
    }
    failures
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let drivers: &[&'static str] =
        if smoke { &["pcnet"] } else { &["pro1000", "pcnet", "rtl8029"] };

    println!("Concrete executor vs symbolic engine (bundled NIC drivers)");
    println!();
    println!(
        "  {:<10} {:>12} {:>12} {:>9} {:>12} {:>10} {:>12} {:>9} {:>8}",
        "Driver", "Sym insn/s", "Conc insn/s", "Speedup", "Conc execs", "Conc ms", "Conc blocks",
        "1st(sym)", "1st(hyb)"
    );
    let mut rows = Vec::new();
    for &name in drivers {
        let row = Value::Map(bench_driver(name));
        println!(
            "  {:<10} {:>12} {:>12} {:>8.1}x {:>12} {:>10.1} {:>12} {:>9} {:>8}",
            name,
            num(&row, "symbolic_insns_per_sec"),
            num(&row, "concrete_insns_per_sec"),
            field(&row, "speedup").and_then(Value::as_f64).unwrap_or(0.0),
            num(&row, "concrete_execs"),
            num(&row, "concrete_wall_ns") as f64 / 1e6,
            num(&row, "concrete_blocks"),
            num(&row, "symbolic_first_bug_quanta"),
            num(&row, "hybrid_first_bug_quanta"),
        );
        rows.push(row);
    }
    println!();

    for row in &rows {
        let driver = field(row, "driver").and_then(Value::as_str).unwrap_or("?");
        assert!(num(row, "concrete_blocks") > 0, "{driver}: fuzzing covered no blocks");
        // Every bundled NIC driver has Table 2 bugs, and the canned corpus
        // reaches at least one of them concretely — so the hybrid pipeline
        // reports first blood no later than the symbolic engine.
        assert!(
            num(row, "symbolic_bugs") > 0 && num(row, "concrete_bugs") > 0,
            "{driver}: no bugs found"
        );
        let (hybrid, symbolic) =
            (num(row, "hybrid_first_bug_quanta"), num(row, "symbolic_first_bug_quanta"));
        assert!(
            hybrid <= symbolic,
            "{driver}: hybrid first bug at quantum {hybrid} vs symbolic {symbolic}"
        );
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_concrete.json");
    let history = ddt_bench::trajectory_history(std::fs::read_to_string(out).ok().as_deref());
    let previous = history
        .iter()
        .rev()
        .find(|e| field(e, "smoke").and_then(Value::as_bool) == Some(smoke));
    let mut failures = Vec::new();
    match previous {
        Some(prev) => {
            let prev_rows = field(prev, "drivers").and_then(Value::as_list).unwrap_or(&[]);
            for row in &rows {
                let driver = field(row, "driver");
                if let Some(p) = prev_rows.iter().find(|p| field(p, "driver") == driver) {
                    failures.extend(compare(row, p));
                }
            }
            println!(
                "  gate: concrete insns/s within {:.0}% of, and counts equal to, rev {} ({})",
                MAX_RATE_DROP * 100.0,
                field(prev, "rev").and_then(Value::as_str).unwrap_or("?"),
                field(prev, "date").and_then(Value::as_str).unwrap_or("?"),
            );
        }
        None => println!("  gate: first entry of this mode, nothing to compare against"),
    }
    println!();

    let mut entry = ddt_bench::rev_and_date();
    entry.push(("smoke".into(), Value::Bool(smoke)));
    entry.push(("drivers".into(), Value::List(rows)));
    let slot = ["rev", "date", "smoke"];
    let json = ddt_bench::trajectory_with("concrete", history, Value::Map(entry), &slot);
    // A failed gate leaves the trajectory as it was, so the entry it was
    // measured against stays the newest.
    assert!(failures.is_empty(), "concrete bench gate failed:\n  {}", failures.join("\n  "));
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rate: u64, blocks: u64) -> Value {
        let mut fields: Vec<(String, Value)> =
            COUNT_COLUMNS.iter().map(|&k| (k.to_string(), Value::U64(1))).collect();
        fields.push(("driver".into(), Value::Str("pcnet".into())));
        fields.push(("concrete_insns_per_sec".into(), Value::U64(rate)));
        fields.retain(|(k, _)| k != "concrete_blocks");
        fields.push(("concrete_blocks".into(), Value::U64(blocks)));
        Value::Map(fields)
    }

    #[test]
    fn gate_allows_a_quarter_drop_and_no_count_change() {
        let prev = row(4_000_000, 53);
        assert!(compare(&row(3_000_000, 53), &prev).is_empty());
        assert!(compare(&row(9_000_000, 53), &prev).is_empty());
        assert_eq!(compare(&row(2_999_999, 53), &prev).len(), 1);
        let moved = compare(&row(4_000_000, 54), &prev);
        assert_eq!(moved, vec!["pcnet: concrete_blocks is 54, the previous entry has 53"]);
    }
}
