//! The benchmark's seed contract and its name contract with
//! `BENCHMARK.json`. The campaigns are heavy: run with
//! `cargo test --release --manifest-path campaign_bench/Cargo.toml`.

use std::path::Path;

use ddt::{ExploreStats, RunHealth};
use ddt_campaign_bench::metrics::{per_layer, END_TO_END};
use ddt_campaign_bench::workload::{run_pass, Pass, Workload};

/// A seed never used while the benchmark was tuned.
const HELD_OUT_SEED: u64 = 0x5eed_0b5e_12fe_d00d;

fn pass(w: Workload, seed: u64) -> Pass {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{seed}", w.name()));
    let pass = run_pass(w, &w.setup(), seed, 0, false, &work, &mut || {});
    let _ = std::fs::remove_dir_all(&work);
    pass
}

/// Every count a pass produces, per campaign. Only the clocks and the
/// process-global interner sample are left out.
fn counts(pass: &Pass) -> Vec<(String, ExploreStats, RunHealth, usize, Vec<String>)> {
    pass.reports
        .iter()
        .map(|r| {
            let mut stats = r.stats.clone();
            stats.wall_ms = 0;
            stats.fuzz_wall_ms = 0;
            stats.interner_hits = 0;
            stats.interner_misses = 0;
            let mut health = r.health.clone();
            health.interner_hits = 0;
            health.interner_misses = 0;
            let mut bugs: Vec<String> = r.bugs.iter().map(|b| b.signature.clone()).collect();
            bugs.sort();
            (r.driver.clone(), stats, health, r.covered_blocks, bugs)
        })
        .collect()
}

fn assert_repeats(w: Workload) {
    let (first, second) = (pass(w, 7), pass(w, 7));
    assert_eq!(first.failed, 0, "{:?}", first.failures);
    assert_eq!(
        counts(&first),
        counts(&second),
        "{}: seed 7 must repeat every count",
        w.name()
    );
}

#[test]
fn same_seed_repeats_every_count_on_symbolic_serial() {
    assert_repeats(Workload::SymbolicSerial);
}

#[test]
fn same_seed_repeats_every_count_on_hybrid_fuzz() {
    assert_repeats(Workload::HybridFuzz);
}

#[test]
fn held_out_seed_passes_the_oracle() {
    for w in Workload::ALL {
        let p = pass(w, HELD_OUT_SEED);
        assert!(p.attempted > 0);
        assert_eq!(
            p.failed,
            0,
            "{} under the held-out seed: {:?}",
            w.name(),
            p.failures
        );
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(per_layer().into_iter().map(|(n, _)| n));
    names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "BENCHMARK.json lacks {name}"
        );
    }
    assert_eq!(
        text.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json names extra metrics"
    );
}
