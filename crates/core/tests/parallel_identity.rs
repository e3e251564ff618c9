//! One parallel worker is the serial explorer: its frontier pops in the
//! strategy's order and it pushes forks, then the machine, exactly as the
//! serial loop does, so `test_parallel(.., 1)` must report what
//! `Ddt::test` reports, count for count — including when the state cap
//! binds.

use ddt_core::{test_parallel, Ddt, DriverUnderTest, ExploreStats, FaultPlan, Report};

/// A bundled driver under the lifecycle workload with every fault family
/// injected, at the given state cap.
fn faults_and_lifecycle(name: &str, max_states: usize) -> (Ddt, DriverUnderTest) {
    let spec = ddt_drivers::driver_by_name(name).expect("bundled driver");
    let mut dut = DriverUnderTest::from_spec(&spec);
    dut.workload = ddt_drivers::workload::lifecycle_workload_for(spec.class);
    let mut ddt = Ddt::default();
    ddt.config.fault_plan = FaultPlan::full();
    ddt.config.max_states = max_states;
    (ddt, dut)
}

/// Every statistic but the clock and the interner sample, which is
/// process-wide.
fn counts(stats: &ExploreStats) -> ExploreStats {
    ExploreStats { wall_ms: 0, interner_hits: 0, interner_misses: 0, ..stats.clone() }
}

/// Each bug's key, signature, inputs, decisions and occurrences.
fn bugs(report: &Report) -> Vec<impl PartialEq + std::fmt::Debug> {
    report
        .bugs
        .iter()
        .map(|b| {
            let found = (b.inputs.clone(), b.decisions.clone(), b.occurrences);
            (b.key.clone(), b.signature.clone(), found)
        })
        .collect()
}

#[test]
fn one_parallel_worker_reports_what_serial_reports() {
    for name in ["pro100", "ac97"] {
        for max_states in [4096, 64] {
            let (ddt, dut) = faults_and_lifecycle(name, max_states);
            let serial = ddt.test(&dut);
            let parallel = test_parallel(&ddt, &dut, 1);
            let what = format!("{name} at cap {max_states}");
            assert!(!serial.bugs.is_empty(), "{what}: the driver has bugs to compare");
            assert_eq!(bugs(&serial), bugs(&parallel), "{what}: bugs");
            assert_eq!(serial.covered_blocks, parallel.covered_blocks, "{what}: coverage");
            assert_eq!(counts(&serial.stats), counts(&parallel.stats), "{what}: statistics");
        }
    }
}
