//! Differential harness for the verdict-query optimization: independence
//! slicing, crossed with the shared query cache.
//!
//! Both are pure solver-time optimizations and must be *semantically
//! invisible*: an exploration with them on, off, or in any mixture must
//! find the same bugs via the same decision schedules with the same solved
//! inputs and the same coverage. This harness runs bundled drivers across
//! the flag matrix and compares the reports field by field (semantic fields
//! only — solver counters legitimately differ between modes).

use std::collections::HashMap;
use std::process::Command;

use ddt::{decision_streams, Ddt, DdtConfig, DriverUnderTest, FaultPlan, Report};

fn run(dut: &DriverUnderTest, base: &DdtConfig, slicing: bool, cache: bool) -> Report {
    let config = DdtConfig { use_slicing: slicing, use_query_cache: cache, ..base.clone() };
    Ddt::new(config).test(dut)
}

/// Asserts that two reports describe the same exploration: same bugs (by
/// stable key), same decision schedules, same solved inputs, same coverage
/// and path/instruction/drop counts. Solver/cache counters are deliberately
/// not compared.
fn assert_semantically_equal(a: &Report, b: &Report, label: &str) {
    let mut ak: Vec<&str> = a.bugs.iter().map(|x| x.key.as_str()).collect();
    let mut bk: Vec<&str> = b.bugs.iter().map(|x| x.key.as_str()).collect();
    ak.sort_unstable();
    bk.sort_unstable();
    assert_eq!(ak, bk, "{label}: bug sets diverged");
    assert_eq!(
        decision_streams(&a.bugs),
        decision_streams(&b.bugs),
        "{label}: decision streams diverged"
    );
    let b_inputs: HashMap<&str, _> = b.bugs.iter().map(|x| (x.key.as_str(), &x.inputs)).collect();
    for bug in &a.bugs {
        assert_eq!(
            Some(&&bug.inputs),
            b_inputs.get(bug.key.as_str()),
            "{label}: solved inputs diverged for bug {}",
            bug.key
        );
    }
    assert_eq!(a.total_blocks, b.total_blocks, "{label}: total blocks");
    assert_eq!(a.covered_blocks, b.covered_blocks, "{label}: coverage diverged");
    assert_eq!(a.stats.paths_started, b.stats.paths_started, "{label}: path counts diverged");
    assert_eq!(a.stats.insns, b.stats.insns, "{label}: instruction counts diverged");
    assert_eq!(a.stats.states_dropped, b.stats.states_dropped, "{label}: drop counts diverged");
}

/// Every cache × slicing combination against the all-on default, on two
/// drivers at the default state cap and on rtl8029 at `max_states: 64`,
/// with and without every fault family. At that cap the frontier is full
/// for most of the run and forks are dropped, so a mode that admitted a
/// different set of children, or admitted them at a different time, would
/// change which paths survive and the drop count.
#[test]
fn optimization_flag_matrix_is_semantically_invisible() {
    let capped = DdtConfig { max_states: 64, ..DdtConfig::default() };
    let capped_faults = DdtConfig { fault_plan: FaultPlan::full(), ..capped.clone() };
    let campaigns = [
        ("rtl8029", DdtConfig::default()),
        ("pcnet", DdtConfig::default()),
        ("rtl8029 max_states=64", capped),
        ("rtl8029 max_states=64 faults", capped_faults),
    ];
    for (label, base) in &campaigns {
        let driver = label.split(' ').next().expect("driver name");
        let spec = ddt::drivers::driver_by_name(driver).expect("bundled");
        let dut = DriverUnderTest::from_spec(&spec);
        let baseline = run(&dut, base, true, true); // Everything on (default).
        if base.max_states == 64 {
            assert!(baseline.stats.states_dropped > 0, "{label}: the cap never bit");
        }
        for (slicing, cache) in [
            (false, true),  // --no-slicing
            (true, false),  // --no-query-cache
            (false, false), // both hatches
        ] {
            let other = run(&dut, base, slicing, cache);
            let label = format!("{label} (slicing={slicing}, cache={cache})");
            assert_semantically_equal(&baseline, &other, &label);
        }
    }
}

#[test]
fn escape_hatches_really_disable_the_machinery() {
    let spec = ddt::drivers::driver_by_name("rtl8029").expect("bundled");
    let dut = DriverUnderTest::from_spec(&spec);

    let no_slicing = run(&dut, &DdtConfig::default(), false, true);
    assert_eq!(no_slicing.stats.solver_sliced, 0, "--no-slicing still sliced");
    assert_eq!(no_slicing.stats.solver_slice_components, 0);
}

#[test]
fn optimization_counters_surface_in_stats_and_health() {
    let spec = ddt::drivers::driver_by_name("rtl8029").expect("bundled");
    let dut = DriverUnderTest::from_spec(&spec);
    let on = run(&dut, &DdtConfig::default(), true, true);

    // Slicing counters are structurally consistent: every sliced query has
    // at least two components.
    assert!(on.stats.solver_slice_components >= 2 * on.stats.solver_sliced);
    // The interner is process-global and exploration allocates expressions.
    assert!(on.stats.interner_hits + on.stats.interner_misses > 0);

    assert_eq!(on.health.solver_sliced, on.stats.solver_sliced);
    assert_eq!(on.health.solver_slice_components, on.stats.solver_slice_components);
    assert!(on.health.render().contains("sliced verdicts"));
}

/// `--no-batch`, `--no-portfolio`, `--no-rewrite` and `--no-incremental`
/// name no layer any more: the CLI must refuse them rather than silently
/// run a default campaign, and the surviving hatches must still parse.
#[test]
fn cli_rejects_removed_hatches_and_keeps_the_surviving_ones() {
    let ddt = env!("CARGO_BIN_EXE_ddt");
    for flag in ["--no-batch", "--no-portfolio", "--no-rewrite", "--no-incremental"] {
        let out = Command::new(ddt).args(["test", "pcnet", flag]).output().expect("spawn ddt");
        assert_eq!(out.status.code(), Some(2), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "the message must name {flag}: {stderr}");
    }
    // A one-quantum budget keeps the accepted run short.
    let out = Command::new(ddt)
        .args(["test", "pcnet", "--no-slicing", "--no-query-cache", "--registry", "K=7"])
        .args(["--max-insns", "1"])
        .output()
        .expect("spawn ddt");
    assert!(
        matches!(out.status.code(), Some(0) | Some(1)),
        "surviving flags were refused: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
