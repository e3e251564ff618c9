//! Every exploration mode counts its lifecycle-violation bugs (§4.11).
//!
//! `ExploreStats::lifecycle_bugs` and `RunHealth::lifecycle_bugs` are the
//! same fact — the distinct lifecycle-violation keys in the final bug map —
//! so every mode must report them equal. ac97 with the lifecycle family
//! finds such bugs symbolically and, in hybrid mode, concretely too.

use ddt_core::{run_hybrid, test_parallel, Ddt, DriverUnderTest, FaultFamily, FaultPlan};
use ddt_core::{FuzzConfig, Report};

fn ac97_with_lifecycle() -> (Ddt, DriverUnderTest) {
    let spec = ddt_drivers::driver_by_name("ac97").expect("bundled");
    let mut dut = DriverUnderTest::from_spec(&spec);
    dut.workload = ddt_drivers::workload::lifecycle_workload_for(spec.class);
    let mut ddt = Ddt::default();
    ddt.config.fault_plan = FaultPlan::for_families(&[FaultFamily::Lifecycle]);
    (ddt, dut)
}

fn assert_counted(mode: &str, report: &Report) {
    assert!(report.health.lifecycle_bugs > 0, "{mode}: ac97 has lifecycle bugs");
    assert_eq!(
        report.stats.lifecycle_bugs, report.health.lifecycle_bugs,
        "{mode}: stats and health disagree on the lifecycle-bug count"
    );
}

#[test]
fn parallel_and_hybrid_runs_count_their_lifecycle_bugs() {
    let (ddt, dut) = ac97_with_lifecycle();
    assert_counted("test_parallel", &test_parallel(&ddt, &dut, 2));
    assert_counted("run_hybrid", &run_hybrid(&ddt, &dut, &FuzzConfig::default()));
}
