//! Search-strategy benchmark: what does coverage guidance buy?
//!
//! Runs the pro1000 and pcnet drivers under every [`Strategy`] (serial,
//! pruning off so the comparison is pure ordering) and reports states
//! expanded to the first bug and to the last new covered block — the two
//! quantities a guided search is supposed to shrink. FIFO is the
//! report-identity baseline: same bugs, same coverage, only the order (and
//! therefore the quanta-to-X counters) may differ.
//!
//! Acceptance gate: on each driver, at least one guided strategy must
//! strictly beat FIFO on states-expanded-to-first-bug or on
//! states-expanded-to-full-coverage, and FIFO itself must land the Table 2
//! bug count. A separate pruning column shows how many duplicate states
//! `--prune` drops without changing the bug set.
//!
//! Every run appends an entry to the `BENCH_search.json` trajectory at the
//! repo root (`format: trajectory-v1`, one slot per rev, date and mode),
//! and fails when any count column of any strategy differs from the newest
//! earlier entry of the same mode: selection is deterministic, so a moved
//! count means the strategies picked different states.
//!
//! Each row's `wall_us` times the prune-off campaign with `Instant`, in
//! microseconds: pcnet's campaigns take about 10 ms, so the report's
//! whole-millisecond `wall_ms` would hide a change below 10%. Wall time is
//! recorded, never gated.
//!
//! `--smoke` runs the pcnet subset for CI.

use std::time::Instant;

use ddt_bench::field;
use ddt_core::{Ddt, DdtConfig, DriverUnderTest, Report, Strategy};
use serde::Value;

/// The columns of a strategy row that must not move between entries of
/// the same mode.
const COUNT_COLUMNS: [&str; 6] = [
    "quanta",
    "quanta_to_first_bug",
    "quanta_to_last_cover",
    "bugs",
    "covered_blocks",
    "states_pruned_with_prune",
];

struct Row {
    strategy: &'static str,
    wall_us: u64,
    quanta: u64,
    first_bug: u64,
    last_cover: u64,
    bugs: usize,
    covered: u64,
    pruned_with_prune: u64,
}

fn run(dut: &DriverUnderTest, strategy: Strategy, prune: bool) -> Report {
    let config = DdtConfig { strategy, prune, ..DdtConfig::default() };
    Ddt::new(config).test(dut)
}

fn bench_driver(name: &str, table2_bugs: usize) -> Vec<Row> {
    let spec = ddt_drivers::driver_by_name(name).expect("bundled driver");
    let dut = DriverUnderTest::from_spec(&spec);
    let mut rows = Vec::new();
    for &strategy in Strategy::ALL.iter() {
        let t0 = Instant::now();
        let report = run(&dut, strategy, false);
        let wall_us = t0.elapsed().as_micros() as u64;
        let pruned = run(&dut, strategy, true);
        assert_eq!(
            report.bugs.len(),
            table2_bugs,
            "{name}/{}: strategy changed the Table 2 bug count",
            strategy.name()
        );
        assert_eq!(
            pruned.bugs.len(),
            table2_bugs,
            "{name}/{}: pruning changed the Table 2 bug count",
            strategy.name()
        );
        rows.push(Row {
            strategy: strategy.name(),
            wall_us,
            quanta: report.stats.quanta_executed,
            first_bug: report.stats.quanta_to_first_bug,
            last_cover: report.stats.quanta_to_last_cover,
            bugs: report.bugs.len(),
            covered: report.covered_blocks as u64,
            pruned_with_prune: pruned.stats.states_pruned,
        });
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let drivers: &[(&str, usize)] =
        if smoke { &[("pcnet", 2)] } else { &[("pro1000", 1), ("pcnet", 2)] };

    println!("Search strategies vs FIFO (serial, prune off; pruned column from a --prune run)");
    println!();
    let mut driver_rows = Vec::new();
    for &(name, table2_bugs) in drivers {
        let rows = bench_driver(name, table2_bugs);
        println!("{name} (Table 2: {table2_bugs} bugs)");
        println!(
            "  {:<18} {:>8} {:>8} {:>10} {:>11} {:>8} {:>8}",
            "Strategy", "Wall us", "Quanta", "->1st bug", "->last cov", "Covered", "Pruned"
        );
        for r in &rows {
            println!(
                "  {:<18} {:>8} {:>8} {:>10} {:>11} {:>8} {:>8}",
                r.strategy, r.wall_us, r.quanta, r.first_bug, r.last_cover, r.covered, r.pruned_with_prune
            );
        }
        println!();

        let fifo = &rows[0];
        assert_eq!(fifo.strategy, "fifo", "FIFO must be the baseline row");
        // Every strategy reaches the same coverage and bug set; guidance
        // only changes *when*. That is what the gate below measures.
        for r in &rows[1..] {
            assert_eq!(r.covered, fifo.covered, "{name}/{}: coverage diverged", r.strategy);
            assert_eq!(r.bugs, fifo.bugs, "{name}/{}: bug count diverged", r.strategy);
        }
        let beats = |r: &Row| {
            (r.first_bug != 0 && fifo.first_bug != 0 && r.first_bug < fifo.first_bug)
                || r.last_cover < fifo.last_cover
        };
        let winner = rows[1..].iter().find(|r| beats(r));
        assert!(
            winner.is_some(),
            "{name}: no guided strategy beat FIFO on states-to-first-bug \
             ({}) or states-to-full-coverage ({})",
            fifo.first_bug,
            fifo.last_cover
        );
        println!(
            "  gate: {} beats fifo (first bug {} vs {}, last cover {} vs {})",
            winner.unwrap().strategy,
            winner.unwrap().first_bug,
            fifo.first_bug,
            winner.unwrap().last_cover,
            fifo.last_cover
        );
        println!();

        let strategies = rows.iter().map(row_value).collect();
        driver_rows.push(Value::Map(vec![
            ("driver".into(), Value::Str(name.into())),
            ("table2_bugs".into(), Value::U64(table2_bugs as u64)),
            ("guided_winner".into(), Value::Str(winner.unwrap().strategy.into())),
            ("strategies".into(), Value::List(strategies)),
        ]));
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    let history = ddt_bench::trajectory_history(std::fs::read_to_string(out).ok().as_deref());
    let previous = history
        .iter()
        .rev()
        .find(|e| field(e, "smoke").and_then(Value::as_bool) == Some(smoke));
    let failures = match previous {
        Some(prev) => {
            println!(
                "gate: every count column equal to rev {} ({})",
                field(prev, "rev").and_then(Value::as_str).unwrap_or("?"),
                field(prev, "date").and_then(Value::as_str).unwrap_or("?"),
            );
            compare(&driver_rows, prev)
        }
        None => {
            println!("gate: first entry of this mode, nothing to compare against");
            Vec::new()
        }
    };

    let mut entry = ddt_bench::rev_and_date();
    entry.push(("smoke".into(), Value::Bool(smoke)));
    entry.push(("drivers".into(), Value::List(driver_rows)));
    let slot = ["rev", "date", "smoke"];
    let json = ddt_bench::trajectory_with("search", history, Value::Map(entry), &slot);
    // A failed gate leaves the trajectory as it was, so the entry it was
    // measured against stays the newest.
    assert!(failures.is_empty(), "search bench gate failed:\n  {}", failures.join("\n  "));
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}

fn row_value(r: &Row) -> Value {
    let u = Value::U64;
    Value::Map(vec![
        ("strategy".into(), Value::Str(r.strategy.into())),
        ("wall_us".into(), u(r.wall_us)),
        ("quanta".into(), u(r.quanta)),
        ("quanta_to_first_bug".into(), u(r.first_bug)),
        ("quanta_to_last_cover".into(), u(r.last_cover)),
        ("bugs".into(), u(r.bugs as u64)),
        ("covered_blocks".into(), u(r.covered)),
        ("states_pruned_with_prune".into(), u(r.pruned_with_prune)),
    ])
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key).and_then(Value::as_list).unwrap_or(&[])
}

/// The element of `items` whose `key` field equals `like`'s.
fn find<'a>(items: &'a [Value], key: &str, like: &Value) -> Option<&'a Value> {
    items.iter().find(|p| field(p, key) == field(like, key))
}

/// Checks every strategy row of every driver against the same row of the
/// previous entry; returns the failures.
fn compare(drivers: &[Value], prev: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    for driver in drivers {
        let Some(prev_driver) = find(list(prev, "drivers"), "driver", driver) else { continue };
        let name = field(driver, "driver").and_then(Value::as_str).unwrap_or("?");
        for row in list(driver, "strategies") {
            let Some(prev_row) = find(list(prev_driver, "strategies"), "strategy", row) else {
                continue;
            };
            let strategy = field(row, "strategy").and_then(Value::as_str).unwrap_or("?");
            for key in COUNT_COLUMNS {
                let (now, before) = (field(row, key), field(prev_row, key));
                if now != before {
                    let show = |v: Option<&Value>| {
                        v.and_then(Value::as_u64).map_or("-".into(), |n| n.to_string())
                    };
                    failures.push(format!(
                        "{name}/{strategy}: {key} is {}, the previous entry has {}",
                        show(now),
                        show(before)
                    ));
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(quanta: u64, wall_us: u64) -> Value {
        let row = Row {
            strategy: "fifo",
            wall_us,
            quanta,
            first_bug: 3,
            last_cover: 4,
            bugs: 2,
            covered: 55,
            pruned_with_prune: 7,
        };
        Value::Map(vec![
            ("driver".into(), Value::Str("pcnet".into())),
            ("strategies".into(), Value::List(vec![row_value(&row)])),
        ])
    }

    #[test]
    fn gate_ignores_wall_time_and_fails_on_a_moved_count() {
        let prev = Value::Map(vec![("drivers".into(), Value::List(vec![entry(338, 10_480)]))]);
        assert!(compare(&[entry(338, 9_730)], &prev).is_empty());
        assert_eq!(
            compare(&[entry(339, 10_480)], &prev),
            vec!["pcnet/fifo: quanta is 339, the previous entry has 338"]
        );
    }
}
