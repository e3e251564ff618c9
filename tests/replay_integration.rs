//! Every bug report must be concretely replayable (§3.5): the solved
//! inputs, interrupt schedule, and forced-failure schedule re-trigger the
//! same failure in the concrete VM.

use ddt::{replay_bug, Ddt, DriverUnderTest, ReplayOutcome};

fn assert_all_replay(driver: &str) {
    let spec = ddt::drivers::driver_by_name(driver).unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    let report = Ddt::default().test(&dut);
    assert!(!report.bugs.is_empty(), "{driver} must have bugs to replay");
    for bug in &report.bugs {
        match replay_bug(&dut, bug) {
            ReplayOutcome::Reproduced { .. } => {}
            ReplayOutcome::NotReproduced { observed } => {
                panic!(
                    "{driver}: bug not reproduced: [{}] {} (observed {observed})",
                    bug.class, bug.description
                );
            }
        }
    }
}

#[test]
fn rtl8029_bugs_replay() {
    assert_all_replay("rtl8029");
}

#[test]
fn ensoniq_bugs_replay() {
    assert_all_replay("ensoniq");
}

#[test]
fn pcnet_bugs_replay() {
    assert_all_replay("pcnet");
}

#[test]
fn ac97_bug_replays() {
    assert_all_replay("ac97");
}

#[test]
fn interrupt_at_a_workload_boundary_replays() {
    // The symbolic explorer also injects interrupts between entry points,
    // where the frame stack is empty. The parallel explorer's witness of
    // pro100's spinlock-variant bug is such a schedule (boundary 7, the
    // bug in the DPC), and concrete replay must deliver that interrupt.
    let spec = ddt::drivers::driver_by_name("pro100").unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    let report = Ddt::default().test(&dut);
    let mut bug = report
        .bugs
        .iter()
        .find(|b| b.key.starts_with("lockvariant:"))
        .expect("pro100 has the spinlock-variant bug")
        .clone();
    bug.decisions = vec![ddt::core::Decision::InjectInterrupt { boundary: 7 }];
    match replay_bug(&dut, &bug) {
        ReplayOutcome::Reproduced { .. } => {}
        ReplayOutcome::NotReproduced { observed } => {
            panic!("the boundary-7 interrupt did not replay (observed {observed})")
        }
    }
}

#[test]
fn injected_fault_bugs_replay_to_the_same_bug() {
    // A fault-plan run surfaces bugs whose decision schedules carry
    // `InjectFault` sites; replaying such a report must arm the same fault
    // at the same kernel-call index and reproduce the same failure. The
    // run being deterministic, re-exploring yields the identical bug key.
    let spec = ddt::drivers::driver_by_name("pcnet").unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    let config = ddt::DdtConfig { fault_plan: ddt::FaultPlan::full(), ..Default::default() };
    let report = Ddt::new(config.clone()).test(&dut);
    let injected: Vec<&ddt::Bug> = report
        .bugs
        .iter()
        .filter(|b| {
            b.decisions.iter().any(|d| matches!(d, ddt::core::Decision::InjectFault { .. }))
        })
        .collect();
    assert!(!injected.is_empty(), "pcnet has injected-fault bugs under the full plan");
    for bug in &injected {
        match replay_bug(&dut, bug) {
            ReplayOutcome::Reproduced { .. } => {}
            ReplayOutcome::NotReproduced { observed } => {
                panic!("[{}] {} not reproduced: {observed}", bug.class, bug.description);
            }
        }
    }
    // Determinism of the bug key: a second exploration with the same plan
    // produces the same injected-fault keys.
    let again = Ddt::new(config).test(&dut);
    let keys = |r: &ddt::Report| {
        r.bugs.iter().map(|b| b.key.clone()).collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(keys(&report), keys(&again));
}

#[test]
fn replay_survives_serialization() {
    // The report a consumer receives over the wire replays identically.
    let spec = ddt::drivers::driver_by_name("ensoniq").unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    let report = Ddt::default().test(&dut);
    let bug = &report.bugs[0];
    let wire = serde_json::to_vec(bug).unwrap();
    let received: ddt::Bug = serde_json::from_slice(&wire).unwrap();
    assert!(matches!(
        replay_bug(&dut, &received),
        ReplayOutcome::Reproduced { .. }
    ));
}

#[test]
fn traces_are_bounded() {
    // §3.5: "The size of these traces rarely exceeds 1 MB per bug".
    let spec = ddt::drivers::driver_by_name("rtl8029").unwrap();
    let dut = DriverUnderTest::from_spec(&spec);
    let report = Ddt::default().test(&dut);
    for bug in &report.bugs {
        let bytes = serde_json::to_vec(bug).unwrap().len();
        assert!(
            bytes < 1_048_576,
            "trace for {:?} is {} bytes (> 1 MB)",
            bug.description,
            bytes
        );
    }
}
