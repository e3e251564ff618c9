//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5). One binary per artifact — see DESIGN.md §5 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results.
//!
//! | Artifact | Binary |
//! |---|---|
//! | Table 1 (driver characteristics) | `table1` |
//! | Table 2 (previously unknown bugs) | `table2` |
//! | Figures 2 and 3 (coverage vs. time) | `fig2_fig3` |
//! | §5.1 SDV comparison | `sdv_comparison` |
//! | §5.1 annotations ablation | `annotations_ablation` |
//! | §5.1 Driver Verifier baseline | `verifier_baseline` |
//! | §5.2 resource statistics | `scalability` |

use ddt_core::{Ddt, DdtConfig, DriverUnderTest, Report};
use ddt_drivers::DriverSpec;
use serde::Value;

/// Runs DDT with the default configuration on a bundled driver.
pub fn run_ddt(spec: &DriverSpec) -> Report {
    run_ddt_with(spec, DdtConfig::default())
}

/// Runs DDT with a custom configuration on a bundled driver.
pub fn run_ddt_with(spec: &DriverSpec, config: DdtConfig) -> Report {
    let dut = DriverUnderTest::from_spec(spec);
    Ddt::new(config).test(&dut)
}

/// Prints a horizontal rule sized for the report tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a byte count like the paper's Table 1 ("168 KB").
pub fn human_kb(bytes: usize) -> String {
    format!("{:.1} KB", bytes as f64 / 1024.0)
}

/// Runs `cmd args...` and returns its first output line (trimmed), or
/// `"unknown"` when unavailable — bench results must not depend on the
/// environment cooperating.
pub fn cmd_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.lines().next().unwrap_or("").trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `rev` and `date` fields that key a trajectory entry: the short git
/// revision of the checkout and today's date.
pub fn rev_and_date() -> Vec<(String, Value)> {
    vec![
        ("rev".into(), Value::Str(cmd_line("git", &["rev-parse", "--short", "HEAD"]))),
        ("date".into(), Value::Str(cmd_line("date", &["+%F"]))),
    ]
}

/// The workspace's offline `serde` stand-in has no blanket impls for its
/// [`Value`] model; this wrapper moves a raw tree through `from_str` /
/// `to_string_pretty` unchanged.
pub struct Raw(pub Value);

impl serde::Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Raw(v.clone()))
    }
}

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Map-field lookup on a raw value tree.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The `history` of a trajectory document, oldest first. A missing file,
/// or one that is not a trajectory yet, has none.
pub fn trajectory_history(existing: Option<&str>) -> Vec<Value> {
    existing
        .and_then(|s| serde_json::from_str::<Raw>(s).ok())
        .and_then(|Raw(doc)| field(&doc, "history").and_then(Value::as_list).map(<[_]>::to_vec))
        .unwrap_or_default()
}

/// Builds a `trajectory-v1` document: `history` gains `entry` as its newest
/// point and `summary` mirrors it. An older entry that agrees with `entry`
/// on every `slot` field (say rev and date) is replaced instead of kept
/// twice.
pub fn trajectory_with(
    bench: &str,
    mut history: Vec<Value>,
    entry: Value,
    slot: &[&str],
) -> String {
    history.retain(|e| !slot.iter().all(|k| field(e, k) == field(&entry, k)));
    history.push(entry.clone());
    let doc = Value::Map(vec![
        ("bench".into(), Value::Str(bench.into())),
        ("format".into(), Value::Str("trajectory-v1".into())),
        ("summary".into(), entry),
        ("history".into(), Value::List(history)),
    ]);
    let mut s = serde_json::to_string_pretty(&Raw(doc)).expect("trajectory serializes");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_kb_formats() {
        assert_eq!(human_kb(2048), "2.0 KB");
        assert_eq!(human_kb(1536), "1.5 KB");
    }

    #[test]
    fn trajectory_replaces_only_its_own_slot() {
        let point = |rev: &str, smoke: bool, v: u64| {
            Value::Map(vec![
                ("rev".into(), Value::Str(rev.into())),
                ("smoke".into(), Value::Bool(smoke)),
                ("v".into(), Value::U64(v)),
            ])
        };
        let slot = ["rev", "smoke"];
        let mut doc = String::new();
        for (smoke, v) in [(true, 1), (false, 2), (true, 3)] {
            let history = trajectory_history(Some(&doc));
            doc = trajectory_with("t", history, point("a", smoke, v), &slot);
        }
        let history = trajectory_history(Some(&doc));
        assert_eq!(history, vec![point("a", false, 2), point("a", true, 3)]);
        let Raw(parsed) = serde_json::from_str(&doc).expect("well-formed");
        assert_eq!(field(&parsed, "summary"), Some(&point("a", true, 3)));
        assert!(trajectory_history(Some("{\"bench\": \"t\"}")).is_empty());
        assert!(trajectory_history(None).is_empty());
    }

    #[test]
    fn run_ddt_smoke() {
        // The clean driver finishes quickly with no bugs: harness sanity.
        let report = run_ddt(&ddt_drivers::clean_driver());
        assert!(report.bugs.is_empty());
        assert!(report.covered_blocks > 0);
    }
}
