//! Strategy-differential harness: every search strategy must find the
//! exact same Table 2 bug set.
//!
//! The search strategy decides *which* pending state runs next; it must
//! never decide *what* the exploration finds. This harness runs every
//! bundled driver under each [`Strategy`], serially and in parallel and
//! across an interrupt/resume, and demands the same bug-key set as the
//! FIFO/serial baseline, which itself must match the Table 2 row counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ddt::{CheckpointPolicy, Ddt, DdtConfig, DriverUnderTest, Report, Strategy};

/// Table 2, row by row (clean_nic is the no-false-positives control).
const EXPECTED: &[(&str, usize)] = &[
    ("rtl8029", 5),
    ("pcnet", 2),
    ("pro1000", 1),
    ("pro100", 1),
    ("ac97", 1),
    ("ensoniq", 4),
    ("clean_nic", 0),
];

fn dut_by_name(name: &str) -> DriverUnderTest {
    if name == "clean_nic" {
        return DriverUnderTest::from_spec(&ddt::drivers::clean_driver());
    }
    DriverUnderTest::from_spec(&ddt::drivers::driver_by_name(name).expect("bundled"))
}

fn config_for(strategy: Strategy) -> DdtConfig {
    DdtConfig { strategy, ..DdtConfig::default() }
}

fn bug_keys(report: &Report) -> Vec<String> {
    let mut keys: Vec<String> = report.bugs.iter().map(|b| b.key.clone()).collect();
    keys.sort_unstable();
    keys
}

/// The full serial matrix for one driver: every strategy must match the
/// FIFO baseline bug set, and the baseline must match the Table 2 count.
fn serial_matrix(name: &str, expected_bugs: usize) {
    let dut = dut_by_name(name);
    let baseline = Ddt::new(config_for(Strategy::Fifo)).test(&dut);
    assert_eq!(
        baseline.bugs.len(),
        expected_bugs,
        "{name}: FIFO baseline missed the Table 2 count: {:#?}",
        baseline.bugs
    );
    let want = bug_keys(&baseline);
    for &strategy in Strategy::ALL.iter() {
        if strategy == Strategy::Fifo {
            continue; // that *is* the baseline
        }
        let report = Ddt::new(config_for(strategy)).test(&dut);
        assert_eq!(
            bug_keys(&report),
            want,
            "{name}: {} diverged from the baseline bug set",
            strategy.name()
        );
    }
}

#[test]
fn serial_matrix_rtl8029() {
    serial_matrix("rtl8029", 5);
}

#[test]
fn serial_matrix_pcnet() {
    serial_matrix("pcnet", 2);
}

#[test]
fn serial_matrix_pro1000() {
    serial_matrix("pro1000", 1);
}

#[test]
fn serial_matrix_pro100() {
    serial_matrix("pro100", 1);
}

#[test]
fn serial_matrix_ac97() {
    serial_matrix("ac97", 1);
}

#[test]
fn serial_matrix_ensoniq() {
    serial_matrix("ensoniq", 4);
}

#[test]
fn serial_matrix_clean_nic_stays_clean() {
    serial_matrix("clean_nic", 0);
}

/// Parallel workers under every strategy still land on the serial
/// baseline's bug set — scheduling noise may reorder discovery,
/// never change it.
#[test]
fn parallel_matrix_matches_serial_baseline() {
    for &(name, expected_bugs) in &[("pcnet", 2usize), ("rtl8029", 5usize)] {
        let dut = dut_by_name(name);
        let baseline = Ddt::new(config_for(Strategy::Fifo)).test(&dut);
        assert_eq!(baseline.bugs.len(), expected_bugs, "{name}");
        let want = bug_keys(&baseline);
        for &strategy in Strategy::ALL.iter() {
            let report = ddt::test_parallel(&Ddt::new(config_for(strategy)), &dut, 2);
            assert_eq!(bug_keys(&report), want, "{name}: parallel {} diverged", strategy.name());
        }
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ddt-searchdiff-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Interrupt + resume under every strategy (the per-state coverage stamps
/// `coverage-new-first` ranks by must survive the checkpoint round-trip)
/// reproduces the uninterrupted bug set. The resume must use the *same*
/// strategy config — the campaign fingerprint refuses anything else.
#[test]
fn interrupt_resume_matrix_matches_uninterrupted() {
    let dut = dut_by_name("pcnet");
    let baseline = Ddt::new(config_for(Strategy::Fifo)).test(&dut);
    let want = bug_keys(&baseline);
    for &strategy in Strategy::ALL.iter() {
        let dir = tmp_dir(strategy.name());
        let flag = Arc::new(AtomicBool::new(false));
        let mut config = config_for(strategy);
        let mut policy = CheckpointPolicy::new(dir.clone());
        policy.every_quanta = 8;
        config.checkpoint = Some(policy);
        config.stop_flag = Some(flag.clone());
        let setter = {
            let f = flag.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                f.store(true, Ordering::Relaxed);
            })
        };
        let _partial = Ddt::new(config).test(&dut);
        setter.join().unwrap();
        let resumed = Ddt::new(config_for(strategy))
            .resume(&dut, &dir)
            .expect("resume under the same strategy");
        assert_eq!(
            bug_keys(&resumed),
            want,
            "{}: resume diverged from the uninterrupted bug set",
            strategy.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A resume under a *different* strategy than the checkpoint's must be
/// refused — the config fingerprint covers `--strategy`.
#[test]
fn resume_refuses_cross_strategy_checkpoint() {
    let dut = dut_by_name("clean_nic");
    let dir = tmp_dir("cross");
    let mut config = config_for(Strategy::CoverageNewFirst);
    config.checkpoint = Some(CheckpointPolicy::new(dir.clone()));
    let _ = Ddt::new(config).test(&dut);
    match Ddt::new(config_for(Strategy::Fifo)).resume(&dut, &dir) {
        Err(ddt::CampaignError::Mismatch(_)) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FIFO must remain the report-identity baseline: strategy plumbing is not
/// allowed to perturb the historic exploration. The default config *is*
/// FIFO, so a default run and an explicit FIFO run must agree on
/// the full report shape, not just bugs.
#[test]
fn fifo_is_report_identical_to_default() {
    for &(name, _) in EXPECTED {
        let dut = dut_by_name(name);
        let default_run = Ddt::default().test(&dut);
        let explicit = Ddt::new(config_for(Strategy::Fifo)).test(&dut);
        assert_eq!(bug_keys(&default_run), bug_keys(&explicit), "{name}");
        assert_eq!(default_run.covered_blocks, explicit.covered_blocks, "{name}");
        assert_eq!(default_run.stats.insns, explicit.stats.insns, "{name}");
        assert_eq!(
            default_run.stats.paths_started, explicit.stats.paths_started,
            "{name}"
        );
        assert_eq!(
            ddt::decision_streams(&default_run.bugs),
            ddt::decision_streams(&explicit.bugs),
            "{name}: decision streams diverged"
        );
    }
}

/// Bug *classifications* survive the strategy choice too, not just the
/// dedup keys: the per-class census matches across the matrix.
#[test]
fn class_census_is_strategy_invariant() {
    let dut = dut_by_name("ensoniq");
    let census = |r: &Report| -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for b in &r.bugs {
            *m.entry(format!("{:?}", b.class)).or_insert(0) += 1;
        }
        m
    };
    let baseline = census(&Ddt::default().test(&dut));
    for &strategy in Strategy::ALL.iter() {
        let report = Ddt::new(config_for(strategy)).test(&dut);
        assert_eq!(census(&report), baseline, "{}", strategy.name());
    }
}
