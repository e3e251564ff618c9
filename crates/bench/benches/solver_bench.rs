//! Benchmarks for per-component solving and hash-consed interning.
//!
//! The headline measurement is the explorer's hot pattern — a *deep-path
//! query stream*, where each branch decision re-decides a constraint prefix
//! that grew by one conjunct. The solver splits every prefix into its
//! symbol-disjoint components and decides each one on its own, smaller
//! instance. Three lanes time the stream, each the fastest of three runs:
//!
//! - `deep_path_optimized_ms`: verdict queries on an uncached solver, so
//!   every component of every prefix is solved afresh (the cost of
//!   *deciding*; the query cache is measured by `cache_bench`);
//! - `deep_path_cached_check_ms`: model-grade `check` queries on a cached
//!   solver, so each prefix solves only the component its new conjunct
//!   touches and reads the others from the cache;
//! - `deep_path_incremental_check_ms`: the explorer's own pattern — one
//!   `PathCondition` extended by each prefix's new conjunct, with a cached
//!   `check_under` of every prefix — so no query partitions a prefix
//!   again.
//!
//! Gates, against the newest earlier entry of the `BENCH_solver.json`
//! trajectory at the repo root that has the lane: each lane's time may be
//! at most 25% above that entry's, and its SAT count must equal that
//! entry's. The run then appends its own entry (keyed by git revision +
//! date; the revision reads `<rev>-dirty` when tracked code differs from
//! it), with per-stage timings and a bundled-driver end-to-end sample:
//! rtl8029 with the default configuration against `--no-query-cache`.

use std::hint::black_box;
use std::time::Instant;

use criterion::Criterion;
use ddt_core::{Ddt, DdtConfig, DriverUnderTest};
use ddt_bench::field;
use ddt_expr::{cache_key, Expr, SymId};
use ddt_solver::{PathCondition, Solver};
use serde::Value;

/// Growing constraint prefixes over three symbol families, mimicking a
/// path that alternates branching on unrelated inputs (registry values,
/// device registers, entry arguments). Every prefix is satisfiable by
/// construction — each conjunct equates a blast-heavy term with its value
/// under a fixed per-family witness — but those witnesses are nontrivial,
/// so the solver's cheap candidate models (all-zero, all-ones, ...) never
/// apply and every query pays for real decision work. That is the
/// deep-path cost profile: the solver lowers and searches three components
/// a third the prefix's size, of which one grew since the previous prefix.
fn deep_path_prefixes(depth: usize) -> Vec<Vec<Expr>> {
    const W: u32 = 16;
    let mut prefix = Vec::new();
    let mut stream = Vec::with_capacity(depth);
    for i in 0..depth as u64 {
        let fam = (i % 3) * 2;
        let x = Expr::sym(SymId(fam as u32), W);
        let y = Expr::sym(SymId(fam as u32 + 1), W);
        // Per-family witness, deliberately outside the fast path's uniform
        // candidate set and distinct across families.
        let witness: ddt_expr::Assignment =
            [(SymId(fam as u32), 11 + fam * 13), (SymId(fam as u32 + 1), 7 + fam * 5)]
                .into_iter()
                .collect();
        let t = x
            .mul(&y.add(&Expr::constant(i * 7 + 1, W)))
            .mul(&x.xor(&Expr::constant(i | 1, W)))
            .add(&y.mul(&x.add(&Expr::constant(i * 3 + 2, W))));
        // Pinning the blast-heavy term to its witness value (instead of
        // pinning x and y directly) keeps real CDCL search in every query,
        // so the stream measures decision work, not unit propagation.
        prefix.push(t.eq(&Expr::constant(t.eval(&witness), W)));
        stream.push(prefix.clone());
    }
    stream
}

/// Largest rise of a lane's time above the previous entry's that passes.
const MAX_SLOWDOWN: f64 = 0.25;

/// Timed runs per lane; the lane's time is the fastest's.
const RUNS: usize = 3;

/// Decides every prefix in the stream on an uncached solver, returning the
/// SAT count (all of them, for this workload — the count guards against
/// dead-code folding).
fn uncached_stream(stream: &[Vec<Expr>]) -> usize {
    let mut s = Solver::uncached();
    stream.iter().filter(|p| s.is_feasible(p)).count()
}

/// Solves every prefix in the stream for a model on a cached solver,
/// returning the SAT count.
fn cached_check_stream(stream: &[Vec<Expr>]) -> usize {
    let mut s = Solver::new();
    stream.iter().filter(|p| s.check(p).is_sat()).count()
}

/// Pushes each prefix's new conjunct onto one path condition and solves it
/// for a model on a cached solver, returning the SAT count.
fn incremental_check_stream(stream: &[Vec<Expr>]) -> usize {
    let mut s = Solver::new();
    let mut pc = PathCondition::new();
    stream
        .iter()
        .filter(|prefix| {
            pc.push(prefix.last().expect("non-empty prefix").clone());
            s.check_under(&pc, &[]).is_sat()
        })
        .count()
}

/// The fastest of [`RUNS`] runs of `f` in milliseconds, with its result
/// (every run must return the same).
fn fastest_ms(f: impl Fn() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let r = black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        assert!(result.is_none_or(|prev| prev == r), "runs of one lane disagree");
        result = Some(r);
    }
    (best, result.expect("RUNS > 0"))
}

fn bench_stages(c: &mut Criterion, stream: &[Vec<Expr>]) {
    let deepest = stream.last().expect("non-empty stream");

    // Interner-backed canonicalization: cache_key over a deep prefix is
    // mostly pointer work when every node is hash-consed.
    c.bench_function("interner/cache_key_deep_prefix", |b| {
        b.iter(|| black_box(cache_key(deepest)).len())
    });

    // Building the deepest prefix's path condition one push at a time:
    // each push merges the conjunct into its family's component.
    c.bench_function("path/push_deep_prefix", |b| {
        b.iter(|| black_box(deepest.iter().cloned().collect::<PathCondition>()).len())
    });
}

/// Checks one lane against the newest earlier entry that has it; returns
/// the failures.
fn gate(lane: &str, sat_field: &str, ms: f64, sat: usize, prev: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(before) = field(prev, lane).and_then(Value::as_f64) {
        if ms > before * (1.0 + MAX_SLOWDOWN) {
            failures.push(format!(
                "{lane}: {ms:.1} ms is more than {:.0}% above the previous {before:.1} ms",
                MAX_SLOWDOWN * 100.0
            ));
        }
    }
    if let Some(before) = field(prev, sat_field).and_then(Value::as_u64) {
        if sat as u64 != before {
            failures.push(format!("{sat_field}: {sat}, the previous entry has {before}"));
        }
    }
    failures
}

fn main() {
    let stream = deep_path_prefixes(40);

    let mut c = Criterion::default().configure_from_args().sample_size(3);
    bench_stages(&mut c, &stream);

    let (opt_ms, opt_sat) = fastest_ms(|| uncached_stream(&stream));
    let (cached_ms, cached_sat) = fastest_ms(|| cached_check_stream(&stream));
    let (incr_ms, incr_sat) = fastest_ms(|| incremental_check_stream(&stream));
    // Every prefix is satisfiable by construction, in every lane.
    assert_eq!(opt_sat, stream.len(), "uncached lane lost a SAT prefix");
    assert_eq!(cached_sat, stream.len(), "cached check lane lost a SAT prefix");
    assert_eq!(incr_sat, stream.len(), "incremental check lane lost a SAT prefix");
    println!(
        "deep-path stream: uncached verdicts {opt_ms:.2} ms, cached checks {cached_ms:.2} ms, \
         incremental checks {incr_ms:.2} ms (fastest of {RUNS})"
    );

    // One bundled driver end to end, the default against `--no-query-cache`,
    // as the macro-level sample for the trajectory point.
    let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled driver");
    let dut = DriverUnderTest::from_spec(&spec);
    let run_campaign = |cache: bool| {
        Ddt::new(DdtConfig { use_query_cache: cache, ..DdtConfig::default() }).test(&dut)
    };
    let uncached = run_campaign(false);
    let default = run_campaign(true);
    assert_eq!(default.bugs.len(), uncached.bugs.len(), "the cache changed bugs");
    let paths = (default.stats.paths_started, uncached.stats.paths_started);
    assert_eq!(paths.0, paths.1, "the cache changed paths");
    println!(
        "rtl8029 campaign: --no-query-cache {} ms, default {} ms ({} sliced queries)",
        uncached.stats.wall_ms, default.stats.wall_ms, default.stats.solver_sliced,
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    let history = ddt_bench::trajectory_history(std::fs::read_to_string(out).ok().as_deref());
    let mut failures = Vec::new();
    for (lane, sat_field, ms, sat) in [
        ("deep_path_optimized_ms", "deep_path_sat", opt_ms, opt_sat),
        ("deep_path_cached_check_ms", "deep_path_cached_check_sat", cached_ms, cached_sat),
        ("deep_path_incremental_check_ms", "deep_path_incremental_check_sat", incr_ms, incr_sat),
    ] {
        match history.iter().rev().find(|e| field(e, lane).is_some()) {
            Some(prev) => {
                failures.extend(gate(lane, sat_field, ms, sat, prev));
                println!(
                    "  gate: {lane} within {:.0}% of rev {} ({})",
                    MAX_SLOWDOWN * 100.0,
                    field(prev, "rev").and_then(Value::as_str).unwrap_or("?"),
                    field(prev, "date").and_then(Value::as_str).unwrap_or("?"),
                );
            }
            None => println!("  gate: no earlier entry has {lane}, nothing to compare against"),
        }
    }

    let (interner_hits, interner_misses) = ddt_expr::intern_stats();
    let mut fields = ddt_bench::rev_and_date();
    fields.extend([
        ("deep_path_depth".into(), Value::U64(stream.len() as u64)),
        ("deep_path_optimized_ms".into(), Value::F64(round3(opt_ms))),
        ("deep_path_sat".into(), Value::U64(opt_sat as u64)),
        ("deep_path_cached_check_ms".into(), Value::F64(round3(cached_ms))),
        ("deep_path_cached_check_sat".into(), Value::U64(cached_sat as u64)),
        ("deep_path_incremental_check_ms".into(), Value::F64(round3(incr_ms))),
        ("deep_path_incremental_check_sat".into(), Value::U64(incr_sat as u64)),
        ("campaign_driver".into(), Value::Str("rtl8029".into())),
        ("campaign_uncached_ms".into(), Value::U64(uncached.stats.wall_ms)),
        ("campaign_optimized_ms".into(), Value::U64(default.stats.wall_ms)),
        ("campaign_sliced_queries".into(), Value::U64(default.stats.solver_sliced)),
        ("interner_hits".into(), Value::U64(interner_hits)),
        ("interner_misses".into(), Value::U64(interner_misses)),
    ]);
    let json = ddt_bench::trajectory_with("solver", history, Value::Map(fields), &["rev", "date"]);
    // A failed gate leaves the trajectory as it was, so the entry it was
    // measured against stays the newest.
    assert!(failures.is_empty(), "solver bench gate failed:\n  {}", failures.join("\n  "));
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}
