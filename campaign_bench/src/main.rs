//! `ddt-campaign-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs passes of one workload while another fits in `--seconds` (at least
//! one), checks every campaign, and prints a summary followed by one JSON
//! result line. With `--trace 1` it instead runs a plain, a traced and a
//! plain pass plus the workload's traced extras, and reports per-layer
//! metrics.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ddt_campaign_bench::metrics::{median, minimum, per_layer, ratio, result_line, END_TO_END};
use ddt_campaign_bench::probe;
use ddt_campaign_bench::workload::{run_pass, traced_extras, Pass, Target, Workload};

/// Wall seconds of one burst of set-up repetitions. A run takes a burst
/// before its first pass and, untraced, another after every campaign.
///
/// `setup_s` is the fastest of all those samples, for the reason given at
/// [`measured_run`]. One set-up takes about a millisecond. Spreading the
/// samples over the whole run puts some of them outside every slow spell
/// of the host.
const SETUP_BURST_S: f64 = 0.05;

const USAGE: &str =
    "usage: ddt-campaign-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A reported metric: name, value, unit, and how many samples it is the
/// median of.
type Row = (String, f64, &'static str, usize);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", w.name(), std::process::id()));

    let mut setup_s = Vec::new();
    let targets = setup_burst(w, &mut setup_s);

    println!(
        "workload {} seed {} trace {}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("input: {}", w.input());
    let (rows, passes) = if args.trace {
        traced_run(w, &targets, args.seed, &setup_s, &work)
    } else {
        measured_run(w, &targets, args.seed, args.seconds, &mut setup_s, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    // Removes the parent only once no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    for row in &rows {
        println!("  {:<32} {:>16.6} {:<6} n={}", row.0, row.1, row.2, row.3);
    }
    println!(
        "  {:<32} {:>16.6} {:<6} ({failed} of {attempted} campaigns failed)",
        "fail_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio"
    );
    for failure in passes.iter().flat_map(|p| &p.failures) {
        eprintln!("FAILED: {failure}");
    }
    let metrics: Vec<(String, f64, &str)> =
        rows.into_iter().map(|(n, v, u, _)| (n, v, u)).collect();
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds the workload's targets repeatedly for [`SETUP_BURST_S`], timing
/// each build into `samples`; returns the last build.
fn setup_burst(w: Workload, samples: &mut Vec<f64>) -> Vec<Target> {
    let burst = Instant::now();
    loop {
        let span = Instant::now();
        let targets = w.setup();
        samples.push(span.elapsed().as_secs_f64());
        if burst.elapsed().as_secs_f64() >= SETUP_BURST_S {
            return targets;
        }
    }
}

/// Untraced passes while another one is expected to fit in the time budget
/// (at least one), with a set-up burst after each campaign.
///
/// Every pass repeats the same campaigns, and on a shared host another
/// tenant's load only ever adds time: for seconds to minutes at a stretch,
/// the same campaign runs up to 1.6 times slower. So a campaign's time is
/// its fastest pass, and `campaign_s` and `cpu_s` sum those minima over
/// the drivers. The rates divide the median work of a pass by that sum.
///
/// Each CPU slows down on its own, and the scheduler leaves a lone thread
/// on the CPU it started on, however slow that CPU has become. So the
/// single-threaded workloads pin pass `k` to allowed CPU `k mod n`, and
/// every campaign is timed on each CPU. faults-durable runs two workers
/// and is left to the scheduler.
fn measured_run(
    w: Workload,
    targets: &[Target],
    seed: u64,
    seconds: u64,
    setup_s: &mut Vec<f64>,
    work: &Path,
) -> (Vec<Row>, Vec<Pass>) {
    let cpus = match w {
        Workload::FaultsDurable => Vec::new(),
        _ => probe::allowed_cpus(),
    };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_walls: Vec<f64> = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() + median(&pass_walls) <= seconds as f64
    {
        if let Some(&cpu) = cpus.get(passes.len() % cpus.len().max(1)) {
            probe::pin_to(cpu);
        }
        let span = Instant::now();
        let index = passes.len() as u64;
        let mut burst = || drop(setup_burst(w, setup_s));
        passes.push(run_pass(w, targets, seed, index, false, work, &mut burst));
        pass_walls.push(span.elapsed().as_secs_f64());
    }
    let peak_rss_mb = probe::usage().peak_rss_mb;
    let n = passes.len();
    let times: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.campaign_s))
        .collect();
    println!(
        "campaign_s per pass (CPUs taken in turn: {cpus:?}): {}",
        times.join(" ")
    );
    // Each campaign's fastest pass, in driver order.
    let fastest = |f: &dyn Fn(&Pass) -> &[f64]| -> Vec<f64> {
        (0..targets.len())
            .map(|d| minimum(&passes.iter().map(|p| f(p)[d]).collect::<Vec<_>>()))
            .collect()
    };
    let walls = fastest(&|p| &p.campaign_walls);
    let per_driver: Vec<String> = targets
        .iter()
        .zip(&walls)
        .map(|(t, s)| format!("{} {s:.3}", t.name))
        .collect();
    println!("fastest campaign_s per driver: {}", per_driver.join(", "));
    let campaign_s: f64 = walls.iter().sum();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let values = [
        (minimum(setup_s), setup_s.len()),
        (campaign_s, n),
        (per_pass(&|p| p.paths as f64) / campaign_s, n),
        (
            per_pass(&|p| (p.paths + p.fuzz_execs) as f64) / campaign_s,
            n,
        ),
        (fastest(&|p| &p.campaign_cpus).iter().sum(), n),
        (peak_rss_mb, 1),
        (per_pass(&|p| p.covered_blocks as f64), n),
        (per_pass(&|p| p.bugs as f64), n),
    ];
    let rows = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| (name.to_string(), value, unit, samples))
        .collect();
    (rows, passes)
}

/// One plain and one traced pass of the same work, then the workload's
/// traced extras; reports every per-layer metric.
fn traced_run(
    w: Workload,
    targets: &[Target],
    seed: u64,
    setup_s: &[f64],
    work: &Path,
) -> (Vec<Row>, Vec<Pass>) {
    // Plain passes on both sides of the traced one, so neither side of the
    // overhead ratio is the process's cold first pass alone.
    let before = run_pass(w, targets, seed, 0, false, work, &mut || {});
    let mut traced = run_pass(w, targets, seed, 0, true, work, &mut || {});
    let after = run_pass(w, targets, seed, 0, false, work, &mut || {});
    let plain_s = (before.campaign_s + after.campaign_s) / 2.0;
    println!(
        "campaign_s: plain {:.6} s, traced {:.6} s, plain {:.6} s",
        before.campaign_s, traced.campaign_s, after.campaign_s
    );
    traced_extras(w, targets, seed, &mut traced);
    let analyze = Instant::now();
    for t in targets {
        std::hint::black_box(ddt::isa::analysis::analyze(&t.dut.image));
    }
    let mut layers = std::mem::take(&mut traced.layers);
    layers.insert("isa.analyze_s".into(), analyze.elapsed().as_secs_f64());
    layers.insert("drivers.build_s".into(), minimum(setup_s));
    layers.insert(
        "bench.trace_overhead_ratio".into(),
        ratio(traced.campaign_s, plain_s),
    );
    for r in &traced.reports {
        // The same figures, in the same words, as `ddt test <driver> --health`.
        let h = &r.health;
        println!(
            "  {}: solver full fallbacks {}, query-cache hits {} (exact {}, model-reuse {}, \
             unsat-subset {}), sliced verdicts {} ({} components), session probes {}, \
             batched verdicts {} in {} flush(es)",
            r.driver,
            h.solver_fallbacks,
            h.cache_hits + h.cache_model_reuse + h.cache_unsat_subset,
            h.cache_hits,
            h.cache_model_reuse,
            h.cache_unsat_subset,
            h.solver_sliced,
            h.solver_slice_components,
            h.session_probes,
            h.batched_verdicts,
            h.batch_flushes,
        );
    }
    let rows = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = layers.get(&name).copied().unwrap_or(0.0);
            (name, value, unit, 1)
        })
        .collect();
    (rows, vec![before, traced, after])
}
