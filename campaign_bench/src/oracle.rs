//! The output oracle: decides whether one campaign's report is correct.
//!
//! A campaign fails when its bug set breaks the Table 2 contract for its
//! workload, when a reported bug does not replay, or when its run health
//! shows the campaign was cut short or lost work.

use std::collections::{BTreeMap, BTreeSet};

use ddt::{BugClass, Report, RunHealth};

/// Table 2 of the paper, per driver, as bug-class counts. These are the
/// classes `tests/table2_integration.rs` pins; `clean_nic` has none.
pub fn table2(driver: &str) -> BTreeMap<BugClass, usize> {
    use BugClass::*;
    let row: &[(BugClass, usize)] = match driver {
        "pro1000" => &[(MemoryLeak, 1)],
        "pro100" => &[(KernelCrash, 1)],
        "rtl8029" => &[
            (ResourceLeak, 1),
            (MemoryCorruption, 1),
            (RaceCondition, 1),
            (SegFault, 2),
        ],
        "pcnet" => &[(MemoryLeak, 1), (ResourceLeak, 1)],
        "ensoniq" => &[(SegFault, 2), (RaceCondition, 2)],
        "ac97" => &[(RaceCondition, 1)],
        _ => &[],
    };
    row.iter().copied().collect()
}

/// Bug-class counts of a report.
pub fn class_counts(report: &Report) -> BTreeMap<BugClass, usize> {
    let mut counts = BTreeMap::new();
    for bug in &report.bugs {
        *counts.entry(bug.class).or_insert(0) += 1;
    }
    counts
}

/// Distinct bug signatures of a report.
pub fn signatures(report: &Report) -> BTreeSet<&str> {
    report.bugs.iter().map(|b| b.signature.as_str()).collect()
}

/// Bug keys of a report: one per distinct defect, stable across modes.
pub fn keys(report: &Report) -> BTreeSet<&str> {
    report.bugs.iter().map(|b| b.key.as_str()).collect()
}

/// How a workload's bug set must relate to Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contract {
    /// Exactly the driver's Table 2 classes.
    Exact,
    /// At least the driver's Table 2 classes; `clean_nic` stays clean.
    Superset,
    /// No bug-set contract (the hybrid run stops before draining).
    None,
}

/// Checks a report's bug set against Table 2; returns the violations.
pub fn check_bugs(driver: &str, report: &Report, contract: Contract) -> Vec<String> {
    let expected = table2(driver);
    let got = class_counts(report);
    let ok = match contract {
        Contract::Exact => got == expected,
        Contract::Superset => {
            expected
                .iter()
                .all(|(class, n)| got.get(class).copied().unwrap_or(0) >= *n)
                && (driver != "clean_nic" || got.is_empty())
        }
        Contract::None => true,
    };
    if ok {
        Vec::new()
    } else {
        vec![format!(
            "{driver}: bug classes {got:?} break Table 2 ({contract:?} of {expected:?})"
        )]
    }
}

/// Known program defects in `test_parallel` reports: `(driver, bug-key
/// prefix, what goes wrong)`. A listed bug of a parallel report that does
/// not replay is reported, and lowers `replay.reproduced_ratio`, but does
/// not fail its campaign. Serial reports get no allowance.
const KNOWN_PARALLEL_REPLAY_GAPS: [(&str, &str, &str); 1] = [(
    "pro100",
    "lockvariant:",
    "test_parallel keeps a representative of the spinlock-variant bug (interrupt at \
     boundary 7, in HandleInterrupt) that concrete replay does not reproduce; serial \
     Ddt::test keeps one (boundary 6, in Initialize) that does",
)];

/// The known defect that explains why bug `key` of `driver`'s
/// `test_parallel` report does not replay.
pub fn known_parallel_replay_gap(driver: &str, key: &str) -> Option<&'static str> {
    KNOWN_PARALLEL_REPLAY_GAPS
        .iter()
        .find(|(d, prefix, _)| *d == driver && key.starts_with(prefix))
        .map(|(_, _, why)| *why)
}

/// Checks run health: an exhausted budget, a caught panic, a lost fleet
/// worker or a quarantined shard fails the campaign.
pub fn check_health(driver: &str, health: &RunHealth) -> Vec<String> {
    let mut out = Vec::new();
    if health.insn_budget_exhausted || health.wall_budget_exhausted {
        out.push(format!("{driver}: campaign budget exhausted"));
    }
    if health.panics_caught > 0 {
        out.push(format!(
            "{driver}: {} panic(s) caught",
            health.panics_caught
        ));
    }
    if health.fleet_workers_lost > 0 {
        out.push(format!(
            "{driver}: {} fleet worker(s) lost",
            health.fleet_workers_lost
        ));
    }
    if health.fleet_shards_quarantined > 0 {
        out.push(format!(
            "{driver}: {} shard(s) quarantined",
            health.fleet_shards_quarantined
        ));
    }
    out
}
