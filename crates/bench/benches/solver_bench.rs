//! Benchmarks for the verdict-query optimization layer: hash-consed
//! interning and independence slicing.
//!
//! The headline measurement is the explorer's hot pattern — a *deep-path
//! query stream*, where each branch decision re-decides a constraint prefix
//! that grew by one conjunct. A plain solver blasts the whole prefix as one
//! SAT instance per query; the sliced solver splits it into its
//! symbol-disjoint components and decides each one on its own, smaller
//! instance. The run asserts the sliced stream is at least 2x faster than
//! plain, with identical verdicts in both modes, then appends a history
//! entry (keyed by git revision + date) to the `BENCH_solver.json`
//! trajectory at the repo root, alongside per-stage criterion timings and a
//! bundled-driver end-to-end sample.

use std::hint::black_box;
use std::time::Instant;

use criterion::Criterion;
use ddt_core::{Ddt, DdtConfig, DriverUnderTest};
use ddt_expr::{cache_key, partition_independent, Expr, SymId};
use ddt_solver::Solver;
use serde::Value;

/// Growing constraint prefixes over three symbol families, mimicking a
/// path that alternates branching on unrelated inputs (registry values,
/// device registers, entry arguments). Every prefix is satisfiable by
/// construction — each conjunct equates a blast-heavy term with its value
/// under a fixed per-family witness — but those witnesses are nontrivial,
/// so the solver's cheap candidate models (all-zero, all-ones, ...) never
/// apply and every query pays for real decision work. That is the
/// deep-path cost profile: a plain solver lowers and searches the whole
/// prefix per query, the sliced solver three components a third its size.
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

fn solver_with(slicing: bool) -> Solver {
    // Uncached on purpose: the point is the cost of *deciding*, not of
    // remembering — the query cache is measured by `cache_bench`.
    let mut s = Solver::uncached();
    s.set_slicing(slicing);
    s
}

/// Decides every prefix in the stream, returning the SAT count (all of
/// them, for this workload — the count guards against dead-code folding).
fn run_stream(s: &mut Solver, stream: &[Vec<Expr>]) -> usize {
    stream.iter().filter(|p| s.is_feasible(p)).count()
}

/// Mean milliseconds per run of `f` over `iters` runs.
fn measure_ms(iters: u32, mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut acc = 0;
    for _ in 0..iters {
        acc += f();
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3 / iters as f64
}

fn bench_stages(c: &mut Criterion, stream: &[Vec<Expr>]) {
    let deepest = stream.last().expect("non-empty stream");

    // Interner-backed canonicalization: cache_key over a deep prefix is
    // mostly pointer work when every node is hash-consed.
    c.bench_function("interner/cache_key_deep_prefix", |b| {
        b.iter(|| black_box(cache_key(deepest)).len())
    });

    // Union-find partition of the deepest prefix into its three families.
    let key = cache_key(deepest);
    c.bench_function("slicing/partition_independent", |b| {
        b.iter(|| black_box(partition_independent(&key)).len())
    });

    c.bench_function("solver/deep_path_stream_plain", |b| {
        b.iter(|| run_stream(&mut solver_with(false), stream))
    });
    c.bench_function("solver/deep_path_stream_sliced", |b| {
        b.iter(|| run_stream(&mut solver_with(true), stream))
    });
}

fn main() {
    let stream = deep_path_prefixes(40);

    // Correctness gate before timing anything: both modes agree on every
    // prefix of the workload.
    let plain_sat = run_stream(&mut solver_with(false), &stream);
    let sliced_sat = run_stream(&mut solver_with(true), &stream);
    assert_eq!(sliced_sat, plain_sat, "slicing changed a verdict");

    let mut c = Criterion::default().configure_from_args().sample_size(3);
    bench_stages(&mut c, &stream);

    // The headline numbers, measured outside criterion so they can gate and
    // be serialized: plain vs sliced over the 40-deep stream.
    let iters = 3;
    let plain_ms = measure_ms(iters, || run_stream(&mut solver_with(false), &stream));
    let opt_ms = measure_ms(iters, || run_stream(&mut solver_with(true), &stream));
    let speedup = plain_ms / opt_ms.max(1e-9);
    println!("deep-path stream: plain {plain_ms:.2} ms, sliced {opt_ms:.2} ms ({speedup:.1}x)");
    assert!(
        speedup >= 2.0,
        "sliced deep-path stream must be at least 2x faster \
         (plain {plain_ms:.2} ms vs sliced {opt_ms:.2} ms = {speedup:.2}x)"
    );

    // One bundled driver end to end, `--no-slicing` vs the default, as the
    // macro-level sample for the trajectory point.
    let spec = ddt_drivers::driver_by_name("rtl8029").expect("bundled driver");
    let dut = DriverUnderTest::from_spec(&spec);
    let run_campaign = |slicing: bool| {
        Ddt::new(DdtConfig { use_slicing: slicing, ..DdtConfig::default() }).test(&dut)
    };
    let campaign_off = run_campaign(false);
    let campaign_on = run_campaign(true);
    assert_eq!(campaign_on.bugs.len(), campaign_off.bugs.len(), "slicing changed bugs");
    println!(
        "rtl8029 campaign: --no-slicing {} ms, default {} ms ({} sliced queries)",
        campaign_off.stats.wall_ms, campaign_on.stats.wall_ms, campaign_on.stats.solver_sliced,
    );

    let (interner_hits, interner_misses) = ddt_expr::intern_stats();
    let mut fields = ddt_bench::rev_and_date();
    fields.extend([
        ("deep_path_depth".into(), Value::U64(stream.len() as u64)),
        ("deep_path_plain_ms".into(), Value::F64(round3(plain_ms))),
        ("deep_path_optimized_ms".into(), Value::F64(round3(opt_ms))),
        ("deep_path_speedup".into(), Value::F64(round2(speedup))),
        ("campaign_driver".into(), Value::Str("rtl8029".into())),
        ("campaign_baseline_ms".into(), Value::U64(campaign_off.stats.wall_ms)),
        ("campaign_optimized_ms".into(), Value::U64(campaign_on.stats.wall_ms)),
        ("campaign_sliced_queries".into(), Value::U64(campaign_on.stats.solver_sliced)),
        ("interner_hits".into(), Value::U64(interner_hits)),
        ("interner_misses".into(), Value::U64(interner_misses)),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    let history = ddt_bench::trajectory_history(std::fs::read_to_string(out).ok().as_deref());
    let json = ddt_bench::trajectory_with("solver", history, Value::Map(fields), &["rev", "date"]);
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

fn round2(v: f64) -> f64 {
    (v * 1e2).round() / 1e2
}
