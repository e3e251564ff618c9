//! `report_diff A.json B.json` — are two campaign reports the same?
//!
//! Compares two reports written by `ddt test --json` or `ddt fuzz --json`
//! field by field, bug inputs (the solved models) and traces included. It
//! masks only what two runs of one campaign may legitimately disagree on
//! when the solver's answers are equal:
//!
//! - the wall clock: `stats.wall_ms`, `stats.fuzz_wall_ms` and the
//!   milliseconds of every `coverage_timeline` pair;
//! - the interner's counters (`interner_*`, in `stats` and `health`), which
//!   are process-wide;
//! - the solver's solve and shortcut counters, in `stats` and `health`:
//!   how an answer was found (full solve, fast path, exact hit, model
//!   reuse, UNSAT subset, slicing), not what it was. `solver_queries` is
//!   compared.
//!
//! Exits 0 when the reports are equal, 1 naming each differing field when
//! they are not, and 2 when a file cannot be read or parsed.

use std::process::ExitCode;

use ddt_bench::Raw;
use serde::Value;

/// `stats` fields that measure how, not what, the solver answered.
const STATS_SOLVER_COUNTERS: &[&str] = &[
    "solver_full",
    "solver_fast_hits",
    "solver_cache_hits",
    "solver_model_reuse",
    "solver_unsat_subset",
    "solver_sliced",
    "solver_slice_components",
];

/// The `health` mirrors of [`STATS_SOLVER_COUNTERS`].
const HEALTH_SOLVER_COUNTERS: &[&str] = &[
    "solver_fallbacks",
    "cache_hits",
    "cache_model_reuse",
    "cache_unsat_subset",
    "solver_sliced",
    "solver_slice_components",
];

/// True if the field at `path` (from the report's root) is masked.
fn masked(path: &[String]) -> bool {
    match path {
        [section, field] if section == "stats" => {
            field == "wall_ms"
                || field == "fuzz_wall_ms"
                || field.starts_with("interner_")
                || STATS_SOLVER_COUNTERS.contains(&field.as_str())
        }
        [section, field] if section == "health" => {
            field.starts_with("interner_") || HEALTH_SOLVER_COUNTERS.contains(&field.as_str())
        }
        [timeline, _, first] => timeline == "coverage_timeline" && first == "[0]",
        _ => false,
    }
}

/// Renders a path: map keys joined by dots, list indices in brackets.
fn render(path: &[String]) -> String {
    let mut out = String::new();
    for step in path {
        if !out.is_empty() && !step.starts_with('[') {
            out.push('.');
        }
        out.push_str(step);
    }
    if out.is_empty() {
        "(root)".into()
    } else {
        out
    }
}

/// A leaf's value, for a difference line.
fn show(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(x) => x.to_string(),
        Value::Str(s) => format!("{s:?}"),
        Value::List(items) => format!("a list of {}", items.len()),
        Value::Map(fields) => format!("a map of {}", fields.len()),
    }
}

/// Every unmasked difference between `a` and `b`, one line each.
fn differences(a: &Value, b: &Value) -> Vec<String> {
    let mut out = Vec::new();
    walk(&mut Vec::new(), a, b, &mut out);
    out
}

fn walk(path: &mut Vec<String>, a: &Value, b: &Value, out: &mut Vec<String>) {
    if masked(path) {
        return;
    }
    match (a, b) {
        (Value::Map(fa), Value::Map(fb)) => {
            for (k, va) in fa {
                path.push(k.clone());
                match fb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => walk(path, va, vb, out),
                    None if !masked(path) => out.push(format!("{}: only in A", render(path))),
                    None => {}
                }
                path.pop();
            }
            for (k, _) in fb.iter().filter(|(k, _)| !fa.iter().any(|(ka, _)| ka == k)) {
                path.push(k.clone());
                if !masked(path) {
                    out.push(format!("{}: only in B", render(path)));
                }
                path.pop();
            }
        }
        (Value::List(la), Value::List(lb)) if la.len() == lb.len() => {
            for (i, (va, vb)) in la.iter().zip(lb).enumerate() {
                path.push(format!("[{i}]"));
                walk(path, va, vb, out);
                path.pop();
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{}: {} vs {}", render(path), show(a), show(b))),
    }
}

fn load(file: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    serde_json::from_str::<Raw>(&text)
        .map(|Raw(v)| v)
        .map_err(|e| format!("cannot parse {file}: {e:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: report_diff A.json B.json");
        return ExitCode::from(2);
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("report_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let diffs = differences(&ra, &rb);
    if diffs.is_empty() {
        println!("reports equal: {a} {b}");
        return ExitCode::SUCCESS;
    }
    println!("reports differ: {a} {b}");
    for d in &diffs {
        println!("  {d}");
    }
    ExitCode::from(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(full: u64, queries: u64, wall: u64, input: u64, first_ms: u64) -> Value {
        let pair = |ms: u64, blocks: u64| Value::List(vec![Value::U64(ms), Value::U64(blocks)]);
        Value::Map(vec![
            ("driver".into(), Value::Str("d".into())),
            (
                "bugs".into(),
                Value::List(vec![Value::Map(vec![(
                    "inputs".into(),
                    Value::List(vec![Value::U64(0), Value::U64(input)]),
                )])]),
            ),
            ("coverage_timeline".into(), Value::List(vec![pair(first_ms, 1), pair(9, 2)])),
            (
                "stats".into(),
                Value::Map(vec![
                    ("solver_queries".into(), Value::U64(queries)),
                    ("solver_full".into(), Value::U64(full)),
                    ("interner_hits".into(), Value::U64(wall * 3)),
                    ("wall_ms".into(), Value::U64(wall)),
                ]),
            ),
            (
                "health".into(),
                Value::Map(vec![
                    ("solver_fallbacks".into(), Value::U64(full)),
                    ("panics_caught".into(), Value::U64(0)),
                ]),
            ),
        ])
    }

    #[test]
    fn masked_fields_never_differ() {
        let a = report(192, 7742, 218, 128, 0);
        let b = report(150, 7742, 121, 128, 4);
        assert_eq!(differences(&a, &b), Vec::<String>::new());
    }

    #[test]
    fn queries_inputs_and_shape_are_compared() {
        let a = report(192, 7742, 218, 128, 0);
        let b = report(192, 7741, 218, 127, 0);
        assert_eq!(
            differences(&a, &b),
            vec!["bugs[0].inputs[1]: 128 vs 127", "stats.solver_queries: 7742 vs 7741"]
        );
        let Value::Map(mut fields) = a.clone() else { unreachable!() };
        fields.retain(|(k, _)| k != "driver");
        fields.push(("extra".into(), Value::Bool(true)));
        assert_eq!(
            differences(&a, &Value::Map(fields)),
            vec!["driver: only in A", "extra: only in B"]
        );
        let pair = Value::List(vec![Value::U64(1)]);
        let Value::Map(mut fields) = a.clone() else { unreachable!() };
        fields[2].1 = Value::List(vec![pair]);
        assert_eq!(
            differences(&a, &Value::Map(fields)),
            vec!["coverage_timeline: a list of 2 vs a list of 1"]
        );
    }
}
