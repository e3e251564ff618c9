//! The `ddt` command-line tool.
//!
//! ```text
//! ddt test <driver.dxe | bundled-name> [--audio] [--registry K=V]...
//!          [--no-annotations] [--no-memcheck] [--faults] [--lifecycle]
//!          [--workers N] [--no-query-cache]
//!          [--json FILE] [--replay] [--health]
//!          [--trace-dir DIR] [--checkpoint-dir DIR] [--checkpoint-every N]
//!          [--resume DIR]
//! ddt fuzz <driver.dxe | bundled-name> [--seed N] [--batches N]
//!          [--batch-size N] [--no-escalate] [--quanta-per-batch N]
//!          [--no-drain] [...shared test flags]
//! ddt serve <driver.dxe | bundled-name> [--workers N] [--lease-timeout MS]
//!          [--max-retries N] [--heartbeat-ms MS] [--status-file FILE]
//!          [--chaos-kill N] [--shard-factor N] [...shared test flags]
//! ddt worker <driver.dxe | bundled-name> --worker-id N [...shared test flags]
//! ddt replay --trace <bug-dir | manifest.json | trace.bin> [--driver PATH]
//!            [--audio] [--lifecycle]
//! ddt triage <store-dir>
//! ddt asm <source.s> -o <driver.dxe>
//! ddt disas <driver.dxe>
//! ddt info <driver.dxe | bundled-name>
//! ddt export <bundled-name> -o <driver.dxe>
//! ddt list
//! ```
//!
//! `test` is the paper's consumer scenario (§1): point the tool at a binary
//! driver and get a verdict before loading it. With `--trace-dir` every
//! confirmed bug is persisted as a replayable artifact (§3.5); `replay`
//! re-executes such an artifact concretely, and `triage` renders the
//! deduplicated bug inventory of a store.
//!
//! `fuzz` runs the hybrid concolic/fuzzing pipeline (§4.10): deterministic
//! mutational fuzzing on the fast concrete executor, with interesting
//! executions escalated into the symbolic frontier and the frontier drained
//! symbolically at the end. Same report shape and exit codes as `test`;
//! with `--trace-dir`, a pre-existing store seeds the fuzz corpus.
//!
//! `--checkpoint-dir` makes the campaign durable (§4.7): a write-ahead
//! journal plus periodic frontier checkpoints, crash-safe at any instant.
//! `--resume` picks an interrupted campaign back up from that directory
//! and runs it to the same report the uninterrupted run would have
//! produced. With a campaign active, the first SIGINT drains in-flight
//! work and checkpoints before exiting (code 130); a second SIGINT exits
//! immediately.
//!
//! `--lifecycle` turns device-lifecycle events into fault-injectable
//! inputs (§4.11): PnP surprise removal and D0/D3 power transitions are
//! delivered both as workload operations and mid-quantum at exploration
//! boundaries, with checkers for touch-after-remove and
//! resume-without-restore. Like every fingerprinted knob it is shared by
//! `test`, `fuzz`, `serve`, and `worker`.
//!
//! `test`, `fuzz`, `serve` and `worker` accept only the flags their usage
//! lists: an unknown flag, a valued flag without its value, or a malformed
//! or out-of-range number exits 2 with a message naming the flag rather
//! than running a default campaign. A campaign that a budget cut short
//! says so on stderr (`campaign incomplete: ...`): its report is not
//! comparable across modes.
//!
//! `serve` runs the same campaign as a fault-tolerant **fleet**: the
//! supervisor shards the frontier across `--workers` `ddt worker`
//! subprocesses (spawned from this same binary, speaking length-prefixed
//! frames over stdin/stdout), leases shards with progress deadlines, kills
//! and replaces crashed or hung workers, retries their leases with
//! exponential backoff, and quarantines shards that keep failing. The final
//! report is the same one `ddt test` would have produced. `worker` is the
//! subprocess end of that protocol — not intended for interactive use.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The graceful-interruption flag shared with the explorer. The handler
/// performs one atomic swap (async-signal-safe); everything else — the
/// drain, the final checkpoint, the partial report — happens on the
/// exploration threads when they observe the flag.
static STOP: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    #[link_name = "_exit"]
    fn raw_exit(code: i32) -> !;
}

const SIGINT: i32 = 2;

extern "C" fn on_sigint(_sig: i32) {
    if let Some(flag) = STOP.get() {
        if flag.swap(true, Ordering::SeqCst) {
            // Second ^C: the user wants out *now*.
            unsafe { raw_exit(130) }
        }
    }
}

/// Installs the SIGINT handler and returns the stop flag to hand to
/// [`ddt::DdtConfig::stop_flag`].
fn install_sigint_flag() -> Arc<AtomicBool> {
    let flag = STOP.get_or_init(|| Arc::new(AtomicBool::new(false))).clone();
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as *const () as usize);
    }
    flag
}

use ddt::drivers::workload::{lifecycle_workload_for, workload_for};
use ddt::drivers::DriverClass;
use ddt::isa::image::DxeImage;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ddt test <driver.dxe|name> [--audio] [--registry K=V]... \
         [--no-annotations] [--no-memcheck] [--faults] [--lifecycle] [--workers N] \
         [--no-query-cache] \
         [--strategy fifo|coverage-new-first] \
         [--json FILE] [--replay] [--health] \
         [--trace-dir DIR] [--checkpoint-dir DIR] [--checkpoint-every N] \
         [--resume DIR] [--max-path-insns N] [--max-insns N]\n  \
         ddt fuzz <driver.dxe|name> [--seed N] [--batches N] [--batch-size N] \
         [--no-escalate] [--quanta-per-batch N] [--no-drain] \
         [...shared test flags]\n  \
         ddt serve <driver.dxe|name> [--workers N] [--lease-timeout MS] \
         [--max-retries N] [--heartbeat-ms MS] [--status-file FILE] \
         [--chaos-kill N] [--shard-factor N] [...shared test flags]\n  \
         ddt replay --trace <bug-dir|manifest.json|trace.bin> [--driver PATH] \
         [--audio] [--lifecycle]\n  \
         ddt triage <store-dir>\n  \
         ddt asm <src.s> -o <out.dxe>\n  ddt disas <driver.dxe>\n  \
         ddt info <driver.dxe|name>\n  ddt export <name> -o <out.dxe>\n  ddt list"
    );
    ExitCode::from(2)
}

/// The bundled driver called `name`: a Table 2 driver or the clean
/// reference driver. Every command that accepts a bundled name resolves it
/// here, so all of them see the same image, registry and descriptor.
fn bundled_spec(name: &str) -> Option<ddt::drivers::DriverSpec> {
    ddt::drivers::driver_by_name(name)
        .or_else(|| (name == "clean_nic").then(ddt::drivers::clean_driver))
}

/// Builds a [`ddt::DriverUnderTest`] from a bundled name or a `.dxe` path,
/// with the bundled spec's registry/descriptor defaults when available.
/// `lifecycle` selects the lifecycle workload (suspend/resume/surprise
/// removal spliced in before Halt) — required to replay bugs found with
/// `--lifecycle`.
fn load_dut(target: &str, audio: bool, lifecycle: bool) -> Result<ddt::DriverUnderTest, String> {
    let mut dut = if let Some(spec) = bundled_spec(target) {
        ddt::DriverUnderTest::from_spec(&spec)
    } else {
        let image = load_image(target)?;
        let class = if audio { DriverClass::Audio } else { DriverClass::Net };
        ddt::DriverUnderTest {
            image,
            class,
            registry: Vec::new(),
            descriptor: Default::default(),
            workload: workload_for(class),
        }
    };
    if lifecycle {
        dut.workload = lifecycle_workload_for(dut.class);
    }
    Ok(dut)
}

fn load_image(arg: &str) -> Result<DxeImage, String> {
    if let Some(spec) = bundled_spec(arg) {
        return Ok(spec.build().image);
    }
    let bytes = std::fs::read(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
    DxeImage::from_bytes(&bytes).map_err(|e| format!("{arg}: {e}"))
}

/// Builds the driver under test from `args[1]` plus the shared flags
/// (`--audio`, `--registry`). `test`, `serve`, and `worker` all go through
/// here — supervisor and workers must agree on the exact same DUT.
fn parse_target(args: &[String]) -> Result<ddt::DriverUnderTest, String> {
    let Some(target) = args.get(1) else {
        return Err("missing driver target".to_string());
    };
    let image = load_image(target)?;
    // Bundled drivers bring their registry/descriptor defaults.
    let bundled = bundled_spec(target);
    let class = if args.iter().any(|a| a == "--audio")
        || bundled.as_ref().is_some_and(|b| b.class == DriverClass::Audio)
    {
        DriverClass::Audio
    } else {
        DriverClass::Net
    };
    let mut registry: Vec<(String, u32)> = bundled
        .as_ref()
        .map(|b| b.registry.iter().map(|&(k, v)| (k.to_string(), v)).collect())
        .unwrap_or_default();
    for kv in flag_values(args, "--registry") {
        match kv.split_once('=') {
            Some((k, v)) => {
                let parsed = if let Some(hex) = v.strip_prefix("0x") {
                    u32::from_str_radix(hex, 16)
                } else {
                    v.parse()
                };
                match parsed {
                    Ok(n) => registry.push((k.to_string(), n)),
                    Err(_) => return Err(format!("bad --registry value {kv:?}")),
                }
            }
            None => return Err(format!("--registry expects K=V, got {kv:?}")),
        }
    }
    let descriptor = bundled.map(|b| b.descriptor).unwrap_or_default();
    // The lifecycle workload is part of the shared target definition:
    // supervisor and workers must drive the exact same operation sequence.
    let workload = if args.iter().any(|a| a == "--lifecycle") {
        lifecycle_workload_for(class)
    } else {
        workload_for(class)
    };
    Ok(ddt::DriverUnderTest { image, class, registry, descriptor, workload })
}

/// Parses the shared configuration flags. The fleet handshake compares
/// config fingerprints between supervisor and workers, so every
/// fingerprinted knob must be parsed identically by `test`, `serve`, and
/// `worker`.
fn parse_config(args: &[String]) -> Result<ddt::DdtConfig, String> {
    let mut config = ddt::DdtConfig::default();
    if args.iter().any(|a| a == "--no-annotations") {
        config.annotations = ddt::Annotations::disabled();
    }
    if args.iter().any(|a| a == "--no-memcheck") {
        config.check_memory = false;
    }
    if args.iter().any(|a| a == "--faults") {
        config.fault_plan = ddt::FaultPlan::full();
    }
    // `--lifecycle` adds the lifecycle family on top of whatever plan is in
    // force: alone it enables exactly that family, with `--faults` the full
    // plan already contains it.
    if args.iter().any(|a| a == "--lifecycle") && !config.fault_plan.wants(ddt::FaultFamily::Lifecycle)
    {
        config.fault_plan.enabled = true;
        config.fault_plan.families.insert(ddt::FaultFamily::Lifecycle);
    }
    // Escape hatch: disable the shared counterexample cache. The
    // exploration is identical (the cache is semantically invisible); only
    // solver time changes. It is the reference path of the differential
    // tests.
    if args.iter().any(|a| a == "--no-query-cache") {
        config.use_query_cache = false;
    }
    // Search strategy. It is fingerprinted, so supervisor and workers
    // agree, and a resume refuses a mismatched strategy.
    if let Some(name) = flag_value(args, "--strategy") {
        let Some(s) = ddt::Strategy::parse(&name) else {
            let names = ddt::Strategy::ALL.map(ddt::Strategy::name).join(" or ");
            return Err(format!("bad --strategy value {name:?}: expected {names}"));
        };
        config.strategy = s;
    }
    // The per-path step budget: the hang watchdog for drivers stuck in
    // polling loops (counted as potential hangs in the health report).
    if let Some(n) = numeric_flag(args, "--max-path-insns", 1)? {
        config.max_path_insns = n;
    }
    // The campaign-wide instruction budget. Lifecycle injection multiplies
    // the path count, so exhaustive runs over large drivers need headroom
    // beyond the default; exploration order under an exhausted budget is
    // mode-dependent, so differential comparisons raise this until the
    // campaign completes.
    if let Some(n) = numeric_flag(args, "--max-insns", 1)? {
        config.max_total_insns = n;
    }
    if let Some(dir) = flag_value(args, "--trace-dir") {
        config.trace_dir = Some(std::path::PathBuf::from(dir));
    }
    Ok(config)
}

/// The value of a numeric flag, if present: decimal or `0x` hex, at least
/// `min`. A malformed or out-of-range value is an error that names the
/// flag, never a silent default.
fn numeric_flag(args: &[String], flag: &str, min: u64) -> Result<Option<u64>, String> {
    let Some(v) = flag_value(args, flag) else { return Ok(None) };
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    match parsed {
        Ok(n) if n >= min => Ok(Some(n)),
        _ => Err(format!("bad {flag} value {v:?}")),
    }
}

/// [`numeric_flag`] narrowed to a smaller integer type: a value that does
/// not fit is out of range, never an `as`-cast truncation that silently
/// configures something else.
fn narrow_flag<T: TryFrom<u64>>(
    args: &[String],
    flag: &str,
    min: u64,
) -> Result<Option<T>, String> {
    numeric_flag(args, flag, min)?
        .map(|n| T::try_from(n).map_err(|_| format!("bad {flag} value {n}: out of range")))
        .transpose()
}

/// The hybrid-run flags of `ddt fuzz`.
fn parse_fuzz_config(args: &[String]) -> Result<ddt::FuzzConfig, String> {
    let mut fz = ddt::FuzzConfig::default();
    if let Some(n) = numeric_flag(args, "--seed", 0)? {
        fz.seed = n;
    }
    if let Some(n) = numeric_flag(args, "--batches", 1)? {
        fz.batches = n;
    }
    if let Some(n) = numeric_flag(args, "--batch-size", 1)? {
        fz.batch_size = n;
    }
    if let Some(n) = numeric_flag(args, "--quanta-per-batch", 0)? {
        fz.quanta_per_batch = n;
    }
    if args.iter().any(|a| a == "--no-escalate") {
        fz.escalate = false;
    }
    if args.iter().any(|a| a == "--no-drain") {
        fz.drain_frontier = false;
    }
    Ok(fz)
}

/// The supervisor flags of `ddt serve`.
fn parse_fleet_config(args: &[String]) -> Result<ddt::FleetConfig, String> {
    let mut fc = ddt::FleetConfig::default();
    if let Some(n) = narrow_flag(args, "--workers", 1)? {
        fc.workers = n;
    }
    if let Some(n) = numeric_flag(args, "--lease-timeout", 1)? {
        fc.lease_timeout_ms = n;
    }
    if let Some(n) = narrow_flag(args, "--max-retries", 0)? {
        fc.max_retries = n;
    }
    if let Some(n) = numeric_flag(args, "--heartbeat-ms", 1)? {
        fc.heartbeat_ms = n;
    }
    if let Some(n) = narrow_flag(args, "--chaos-kill", 0)? {
        fc.chaos_kills = n;
    }
    if let Some(n) = narrow_flag(args, "--shard-factor", 1)? {
        fc.shard_factor = n;
    }
    if let Some(n) = narrow_flag(args, "--max-respawns", 0)? {
        fc.max_respawns = n;
    }
    if let Some(path) = flag_value(args, "--status-file") {
        fc.status_file = Some(std::path::PathBuf::from(path));
    }
    Ok(fc)
}

/// The options of `ddt worker`. The test hooks come from the environment,
/// for exercising the supervisor's recovery paths from the command line.
fn parse_worker_opts(args: &[String]) -> Result<ddt::WorkerOpts, String> {
    let env_u64 = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<u64>().ok());
    Ok(ddt::WorkerOpts {
        worker_id: numeric_flag(args, "--worker-id", 0)?.unwrap_or(0),
        heartbeat_ms: numeric_flag(args, "--heartbeat-ms", 1)?.unwrap_or(0),
        die_after_shards: env_u64("DDT_FLEET_TEST_DIE_AFTER"),
        fail_shard: env_u64("DDT_FLEET_TEST_FAIL_SHARD"),
        hang_on_first_shard: env_u64("DDT_FLEET_TEST_HANG").is_some(),
    })
}

/// The flags one subcommand accepts after its positional arguments; a
/// campaign subcommand also accepts [`SHARED_FLAGS`].
struct FlagTable {
    /// Flags that stand alone.
    bare: &'static [&'static str],
    /// Flags followed by one value.
    valued: &'static [&'static str],
}

/// The target and configuration flags `parse_target` and `parse_config`
/// read. Every campaign subcommand accepts them, so supervisor and workers
/// parse the same fingerprinted knobs.
const SHARED_FLAGS: FlagTable = FlagTable {
    bare: &[
        "--audio",
        "--no-annotations",
        "--no-memcheck",
        "--faults",
        "--lifecycle",
        "--no-query-cache",
    ],
    valued: &["--registry", "--strategy", "--max-path-insns", "--max-insns"],
};

const TEST_FLAGS: FlagTable = FlagTable {
    bare: &["--replay", "--health"],
    valued: &[
        "--json",
        "--trace-dir",
        "--workers",
        "--checkpoint-dir",
        "--checkpoint-every",
        "--resume",
    ],
};

const FUZZ_FLAGS: FlagTable = FlagTable {
    bare: &["--replay", "--health", "--no-escalate", "--no-drain"],
    valued: &["--json", "--trace-dir", "--seed", "--batches", "--batch-size", "--quanta-per-batch"],
};

const SERVE_FLAGS: FlagTable = FlagTable {
    bare: &["--replay", "--health"],
    valued: &[
        "--json",
        "--trace-dir",
        "--workers",
        "--lease-timeout",
        "--max-retries",
        "--heartbeat-ms",
        "--status-file",
        "--chaos-kill",
        "--shard-factor",
        "--max-respawns",
    ],
};

/// Workers persist nothing themselves, so they take no report flags.
const WORKER_FLAGS: FlagTable = FlagTable { bare: &[], valued: &["--worker-id", "--heartbeat-ms"] };

/// `asm` and `export` name their output file.
const OUTPUT_FLAGS: FlagTable = FlagTable { bare: &[], valued: &["-o"] };

/// `replay` names its artifact and may override the artifact's driver.
const REPLAY_FLAGS: FlagTable =
    FlagTable { bare: &["--audio", "--lifecycle"], valued: &["--trace", "--driver"] };

/// `disas`, `info`, `triage` and `list` take no flags.
const NO_FLAGS: FlagTable = FlagTable { bare: &[], valued: &[] };

/// How a subcommand's arguments are checked: the number of positional
/// arguments before its flags (its target, if it has one), its flag table,
/// and whether it is a campaign subcommand, which takes [`SHARED_FLAGS`]
/// as well. `None` for an unknown subcommand.
fn syntax(cmd: &str) -> Option<(usize, &'static FlagTable, bool)> {
    match cmd {
        "test" => Some((1, &TEST_FLAGS, true)),
        "fuzz" => Some((1, &FUZZ_FLAGS, true)),
        "serve" => Some((1, &SERVE_FLAGS, true)),
        "worker" => Some((1, &WORKER_FLAGS, true)),
        "asm" | "export" => Some((1, &OUTPUT_FLAGS, false)),
        "disas" | "info" | "triage" => Some((1, &NO_FLAGS, false)),
        "replay" => Some((0, &REPLAY_FLAGS, false)),
        "list" => Some((0, &NO_FLAGS, false)),
        _ => None,
    }
}

/// True when `table` lists `flag` in the given column.
fn lists(table: &FlagTable, flag: &str, valued: bool) -> bool {
    if valued { table.valued } else { table.bare }.contains(&flag)
}

/// True when a campaign `table` or the shared table lists `flag` in the
/// given column.
fn knows(table: &FlagTable, flag: &str, valued: bool) -> bool {
    lists(table, flag, valued) || lists(&SHARED_FLAGS, flag, valued)
}

/// Checks every argument after a subcommand's positional arguments
/// against its flag table: an unknown flag, a valued flag with no value or
/// an extra argument is an error that names it.
fn check_flags(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map_or("", String::as_str);
    let Some((positional, table, campaign)) = syntax(cmd) else { return Ok(()) };
    let known = |a: &str, valued| {
        if campaign { knows(table, a, valued) } else { lists(table, a, valued) }
    };
    let mut i = 1 + positional; // args[0] is the subcommand.
    while i < args.len() {
        let a = args[i].as_str();
        if known(a, false) {
            i += 1;
        } else if known(a, true) {
            if i + 1 == args.len() {
                return Err(format!("{a} needs a value"));
            }
            i += 2;
        } else if a.starts_with('-') {
            return Err(format!("ddt {cmd}: unknown flag {a:?}"));
        } else {
            return Err(format!("ddt {cmd}: unexpected argument {a:?}"));
        }
    }
    Ok(())
}

/// Projects a checked `serve` argv onto the argv for its `ddt worker`
/// subprocesses: the target and every flag the worker accepts survive;
/// supervisor-only flags are dropped (workers must not persist traces or
/// reports themselves).
fn worker_args_from(args: &[String]) -> Vec<String> {
    let mut out = vec!["worker".to_string(), args[1].clone()];
    let mut i = 2; // args[0] is "serve", args[1] the target.
    while i < args.len() {
        let a = args[i].as_str();
        let width = if knows(&SERVE_FLAGS, a, true) { 2 } else { 1 };
        if knows(&WORKER_FLAGS, a, width == 2) {
            out.extend_from_slice(&args[i..i + width]);
        }
        i += width;
    }
    out
}

/// Launches `ddt worker` subprocesses for the fleet supervisor: stdin is
/// the control pipe, stdout the frame stream (pumped to the event channel
/// on a thread), and `kill` is a real SIGKILL — the supervisor's recovery
/// path is exercised against actual process death, exactly what the chaos
/// harness relies on.
struct ProcessLauncher {
    exe: std::path::PathBuf,
    worker_args: Vec<String>,
}

struct ProcessHandle {
    child: std::process::Child,
    stdin: Option<std::process::ChildStdin>,
}

impl ddt::core::WorkerHandle for ProcessHandle {
    fn send(&mut self, frame: &ddt::trace::FleetFrame) -> std::io::Result<()> {
        use std::io::Write;
        let closed =
            || std::io::Error::new(std::io::ErrorKind::BrokenPipe, "worker stdin closed");
        let stdin = self.stdin.as_mut().ok_or_else(closed)?;
        stdin.write_all(&ddt::trace::encode_frame(frame))?;
        stdin.flush()
    }
    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait(); // Reap immediately: no zombies.
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        ddt::core::WorkerHandle::kill(self);
    }
}

impl ddt::core::WorkerLauncher for ProcessLauncher {
    fn spawn(
        &mut self,
        worker: u64,
        events: std::sync::mpsc::Sender<ddt::core::FleetEvent>,
    ) -> std::io::Result<Box<dyn ddt::core::WorkerHandle>> {
        let mut child = std::process::Command::new(&self.exe)
            .args(&self.worker_args)
            .arg("--worker-id")
            .arg(worker.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        std::thread::spawn(move || ddt::core::pump_frames(worker, stdout, events));
        Ok(Box::new(ProcessHandle { child, stdin }))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else { return usage() };
    if let Err(e) = check_flags(&args) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    match cmd {
        "list" => {
            println!("bundled drivers:");
            for d in ddt::drivers::drivers() {
                println!(
                    "  {:<10} {:?}  vendor {:04x}:{:04x}  ({} seeded bugs)",
                    d.name, d.class, d.descriptor.vendor_id, d.descriptor.device_id,
                    d.expected_bugs
                );
            }
            println!("  {:<10} Net   (correct reference driver)", "clean_nic");
            ExitCode::SUCCESS
        }
        "asm" => {
            let (Some(src), Some(out)) = (args.get(1), flag_value(&args, "-o")) else {
                return usage();
            };
            let text = match std::fs::read_to_string(src) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {src}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match ddt::isa::asm::assemble(&text, &ddt::kernel::export_map()) {
                Ok(a) => {
                    if let Err(e) = std::fs::write(&out, a.image.to_bytes()) {
                        eprintln!("cannot write {out}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "assembled {} -> {} ({} bytes, entry {:#x})",
                        src,
                        out,
                        a.image.file_size(),
                        a.image.entry
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{src}:{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "disas" => {
            let Some(path) = args.get(1) else { return usage() };
            match load_image(path) {
                Ok(img) => {
                    println!("; {} — load base {:#x}, entry {:#x}", img.name, img.load_base, img.entry);
                    for (pc, line) in ddt::isa::dis::disassemble(&img.text, img.load_base) {
                        let marker = if pc == img.entry { " <entry>" } else { "" };
                        println!("{pc:#010x}:  {line}{marker}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "info" => {
            let Some(path) = args.get(1) else { return usage() };
            match load_image(path) {
                Ok(img) => {
                    let c = ddt::isa::analysis::census(&img);
                    println!("driver:           {}", c.name);
                    println!("binary file:      {} bytes", c.file_size);
                    println!("code segment:     {} bytes", c.code_size);
                    println!("functions:        {}", c.functions);
                    println!("kernel imports:   {}", c.kernel_functions);
                    println!("basic blocks:     {}", c.basic_blocks);
                    for imp in &img.imports {
                        println!("  import {:<3} {}", imp.export_id, imp.name);
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "export" => {
            let (Some(name), Some(out)) = (args.get(1), flag_value(&args, "-o")) else {
                return usage();
            };
            match load_image(name) {
                Ok(img) => {
                    if let Err(e) = std::fs::write(&out, img.to_bytes()) {
                        eprintln!("cannot write {out}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("wrote {} ({} bytes)", out, img.file_size());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "test" => {
            let Some(target) = args.get(1) else { return usage() };
            let dut = match parse_target(&args) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut config = match parse_config(&args) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let checkpoint_dir = flag_value(&args, "--checkpoint-dir");
            let resume_dir = flag_value(&args, "--resume");
            let numbers = numeric_flag(&args, "--checkpoint-every", 1)
                .and_then(|every| Ok((every, narrow_flag(&args, "--workers", 1)?)));
            let (every, workers): (_, Option<usize>) = match numbers {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            if let Some(dir) = &checkpoint_dir {
                let mut policy = ddt::CheckpointPolicy::new(std::path::PathBuf::from(dir));
                if let Some(q) = every {
                    policy.every_quanta = q;
                }
                config.checkpoint = Some(policy);
            }
            // Graceful interruption only matters when there is a durable
            // campaign to leave behind.
            let stop_flag = if checkpoint_dir.is_some() || resume_dir.is_some() {
                let flag = install_sigint_flag();
                config.stop_flag = Some(flag.clone());
                Some(flag)
            } else {
                None
            };
            let tool = ddt::Ddt::new(config);
            let started = std::time::Instant::now();
            let report = match (&resume_dir, workers) {
                (Some(dir), w) => {
                    let dir = std::path::Path::new(dir);
                    let resumed = match w {
                        Some(n) => ddt::resume_parallel(&tool, &dut, n, dir),
                        None => tool.resume(&dut, dir),
                    };
                    match resumed {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("cannot resume campaign: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                (None, Some(n)) => ddt::test_parallel(&tool, &dut, n),
                (None, None) => tool.test(&dut),
            };
            if let Some(code) = print_report(&args, &dut, &report, started) {
                return code;
            }
            if stop_flag.is_some_and(|f| f.load(Ordering::SeqCst)) {
                let dir = resume_dir.or(checkpoint_dir).unwrap_or_default();
                println!(
                    "interrupted: partial report above; campaign checkpointed — \
                     continue with `ddt test {target} --resume {dir}`"
                );
                return ExitCode::from(130);
            }
            verdict_code(&report)
        }
        "fuzz" => {
            let dut = match parse_target(&args) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let config = match parse_config(&args) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let fz = match parse_fuzz_config(&args) {
                Ok(fz) => fz,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let tool = ddt::Ddt::new(config);
            let started = std::time::Instant::now();
            let report = ddt::run_hybrid(&tool, &dut, &fz);
            println!(
                "fuzz: {} concrete exec(s), {} insns in {} ms; {} escalation(s), \
                 {} concrete-first block(s), {} concrete-first bug(s)",
                report.stats.fuzz_execs,
                report.stats.fuzz_insns,
                report.stats.fuzz_wall_ms,
                report.stats.escalations,
                report.stats.concrete_blocks,
                report.stats.concrete_bugs,
            );
            if let Some(code) = print_report(&args, &dut, &report, started) {
                return code;
            }
            verdict_code(&report)
        }
        "serve" => {
            let dut = match parse_target(&args) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut config = match parse_config(&args) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let fc = match parse_fleet_config(&args) {
                Ok(fc) => fc,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let exe = match std::env::current_exe() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot locate own executable for worker spawn: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut launcher =
                ProcessLauncher { exe, worker_args: worker_args_from(&args) };
            // First ^C drains: the fleet stops granting, reports completed
            // shards; a second ^C exits immediately.
            let stop_flag = install_sigint_flag();
            config.stop_flag = Some(stop_flag.clone());
            let tool = ddt::Ddt::new(config);
            let started = std::time::Instant::now();
            let report = ddt::core::serve(&tool, &dut, &mut launcher, &fc);
            if let Some(code) = print_report(&args, &dut, &report, started) {
                return code;
            }
            if stop_flag.load(Ordering::SeqCst) {
                println!("interrupted: partial report above (completed shards only)");
                return ExitCode::from(130);
            }
            verdict_code(&report)
        }
        "worker" => {
            // The subprocess end of `ddt serve`: frames in on stdin, frames
            // out on stdout, human noise only on stderr.
            let dut = match parse_target(&args) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("ddt worker: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let config = match parse_config(&args) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("ddt worker: {e}");
                    return ExitCode::from(2);
                }
            };
            let opts = match parse_worker_opts(&args) {
                Ok(opts) => opts,
                Err(e) => {
                    eprintln!("ddt worker: {e}");
                    return ExitCode::from(2);
                }
            };
            let tool = ddt::Ddt::new(config);
            match ddt::core::run_worker(&tool, &dut, std::io::stdin(), std::io::stdout(), opts)
            {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("ddt worker: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "replay" => {
            let Some(trace) = flag_value(&args, "--trace") else { return usage() };
            let artifact = match ddt::trace::load_artifact(std::path::Path::new(&trace)) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("cannot load trace {trace}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let m = &artifact.manifest;
            println!(
                "replaying {} [{}] {} (pc {:#x}, {} event(s), {} decision(s))",
                m.signature,
                m.class,
                m.description,
                m.pc,
                artifact.events.len(),
                m.replay_decisions().len(),
            );
            // The artifact names its driver; --driver overrides (e.g. a
            // .dxe file for a non-bundled binary).
            let target = flag_value(&args, "--driver").unwrap_or_else(|| m.driver.clone());
            let audio = args.iter().any(|a| a == "--audio");
            let lifecycle = args.iter().any(|a| a == "--lifecycle");
            let dut = match load_dut(&target, audio, lifecycle) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            match ddt::replay_artifact(&dut, &artifact) {
                ddt::ReplayOutcome::Reproduced { observed } => {
                    println!("reproduced: {observed}");
                    ExitCode::SUCCESS
                }
                ddt::ReplayOutcome::NotReproduced { observed } => {
                    println!("NOT reproduced: {observed}");
                    ExitCode::FAILURE
                }
            }
        }
        "triage" => {
            let Some(dir) = args.get(1) else { return usage() };
            let store = match ddt::trace::TraceStore::open(std::path::Path::new(dir)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open trace store {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match ddt::trace::triage(&store) {
                Ok(summary) => {
                    print!("{}", summary.render());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("triage failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// Prints the human-facing report (summary line, bugs with optional
/// replay, health, `--json` export, trace-store note). Returns an exit code
/// only when an export failed; `None` means keep going to the verdict.
fn print_report(
    args: &[String],
    dut: &ddt::DriverUnderTest,
    report: &ddt::Report,
    started: std::time::Instant,
) -> Option<ExitCode> {
    println!(
        "tested '{}': {} paths, {}/{} blocks ({:.0}%), {:.2?}",
        report.driver,
        report.stats.paths_started,
        report.covered_blocks,
        report.total_blocks,
        100.0 * report.relative_coverage(),
        started.elapsed()
    );
    for bug in &report.bugs {
        println!("  [{}] {}", bug.class, bug.description);
        if args.iter().any(|a| a == "--replay") {
            match ddt::replay_bug(dut, bug) {
                ddt::ReplayOutcome::Reproduced { observed } => {
                    println!("      replayed: {observed}");
                }
                ddt::ReplayOutcome::NotReproduced { observed } => {
                    println!("      REPLAY FAILED: {observed}");
                }
            }
        }
    }
    if args.iter().any(|a| a == "--health") || !report.health.pristine() {
        print!("{}", report.health.render());
    }
    for line in incomplete_lines(&report.health) {
        eprintln!("{line}");
    }
    if let Some(path) = flag_value(args, "--json") {
        match serde_json::to_vec_pretty(report) {
            Ok(j) => {
                if let Err(e) = std::fs::write(&path, j) {
                    eprintln!("cannot write {path}: {e}");
                    return Some(ExitCode::FAILURE);
                }
                println!("report written to {path}");
            }
            Err(e) => eprintln!("serialization failed: {e}"),
        }
    }
    if let Some(dir) = flag_value(args, "--trace-dir") {
        println!(
            "trace store: {} artifact(s) persisted to {dir}",
            report.health.traces_persisted
        );
    }
    None
}

/// One loud line per budget that ended the run early: the report of a
/// truncated campaign depends on the exploration order.
fn incomplete_lines(health: &ddt::RunHealth) -> Vec<String> {
    [(health.insn_budget_exhausted, "instruction"), (health.wall_budget_exhausted, "wall-clock")]
        .into_iter()
        .filter(|&(hit, _)| hit)
        .map(|(_, which)| format!("campaign incomplete: {which} budget exhausted"))
        .collect()
}

fn verdict_code(report: &ddt::Report) -> ExitCode {
    if report.bugs.is_empty() {
        println!("verdict: no defects found");
        ExitCode::SUCCESS
    } else {
        println!("verdict: {} defect(s) — do not load this driver", report.bugs.len());
        ExitCode::FAILURE
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    /// `test`, `serve` and `worker` build their target through
    /// `parse_target`, `replay` through `load_dut`: both must hand the clean
    /// driver the same registry and PCI descriptor the library does.
    #[test]
    fn clean_nic_target_carries_its_registry_and_descriptor() {
        let spec = ddt::drivers::clean_driver();
        let expected = ddt::DriverUnderTest::from_spec(&spec);
        assert!(!expected.registry.is_empty());
        for dut in [
            parse_target(&argv(&["test", "clean_nic"])).expect("bundled target"),
            load_dut("clean_nic", false, false).expect("bundled target"),
        ] {
            assert_eq!(dut.image.name, expected.image.name);
            assert_eq!(dut.class, expected.class);
            assert_eq!(dut.registry, expected.registry);
            assert_eq!(dut.descriptor, expected.descriptor);
        }
    }

    #[test]
    fn campaign_flags_are_checked_against_their_subcommand() {
        // Removed switches, structural pruning's among them, are unknown to
        // every campaign subcommand.
        for cmd in ["test", "fuzz", "serve", "worker"] {
            for flag in ["--no-batch", "--prune", "--no-prune"] {
                let err = check_flags(&argv(&[cmd, "pcnet", flag])).unwrap_err();
                assert!(err.contains(flag), "{cmd}: {err}");
            }
        }
        let err = check_flags(&argv(&["test", "pcnet", "--json"])).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        let err = check_flags(&argv(&["fuzz", "pcnet", "--chaos-kill", "1"])).unwrap_err();
        assert!(err.contains("--chaos-kill"), "{err}");
        // A malformed or out-of-range number names its flag instead of
        // falling back to a default.
        let bad = |list: &[&str]| -> String {
            let args = argv(list);
            check_flags(&args).expect("known flags");
            let parsed = match list[0] {
                "fuzz" => parse_fuzz_config(&args).map(drop),
                "serve" => parse_fleet_config(&args).map(drop),
                "worker" => parse_worker_opts(&args).map(drop),
                _ => parse_config(&args)
                    .and_then(|_| narrow_flag::<usize>(&args, "--workers", 1))
                    .map(drop),
            };
            parsed.unwrap_err()
        };
        for (list, flag) in [
            (&["test", "pcnet", "--workers", "abc"][..], "--workers"),
            (&["test", "pcnet", "--workers", "0"], "--workers"),
            (&["test", "pcnet", "--max-insns", "-5"], "--max-insns"),
            (&["fuzz", "pcnet", "--batches", "1e3"], "--batches"),
            (&["serve", "pcnet", "--max-retries", "4294967296"], "--max-retries"),
            (&["worker", "pcnet", "--worker-id", "x"], "--worker-id"),
            (&["worker", "pcnet", "--heartbeat-ms", "0"], "--heartbeat-ms"),
            (&["test", "pcnet", "--strategy", "rarest-branch"], "--strategy"),
            (&["test", "pcnet", "--strategy", "bug-directed"], "--strategy"),
        ] {
            let err = bad(list);
            assert!(err.contains(flag), "{list:?}: {err}");
            // An unknown strategy's error names every strategy there is.
            if flag == "--strategy" {
                for s in ddt::Strategy::ALL {
                    assert!(err.contains(s.name()), "{list:?}: {err}");
                }
            }
        }
        let fz = parse_fuzz_config(&argv(&["fuzz", "pcnet", "--seed", "0xDD7"])).expect("hex");
        assert_eq!(fz.seed, 0xDD7);
        let opts = parse_worker_opts(&argv(&["worker", "pcnet", "--worker-id", "3"])).expect("id");
        assert_eq!(opts.worker_id, 3);
        // A budget that ended the run is announced, one line per budget.
        let mut health = ddt::RunHealth::default();
        assert!(incomplete_lines(&health).is_empty());
        health.wall_budget_exhausted = true;
        let lines = incomplete_lines(&health);
        assert_eq!(lines, ["campaign incomplete: wall-clock budget exhausted"]);
        // The other subcommands check their own flags, without the shared
        // campaign flags, and take no extra arguments.
        for (list, named) in [
            (&["info", "pcnet", "--bogus"][..], "--bogus"),
            (&["disas", "pcnet", "extra", "--faults"], "extra"),
            (&["disas", "pcnet", "--faults"], "--faults"),
            (&["list", "--x"], "--x"),
            (&["list", "pcnet"], "pcnet"),
            (&["triage", "store", "--bogus"], "--bogus"),
            (&["asm", "a.s", "-o"], "-o"),
            (&["export", "pcnet", "-o", "p.dxe", "--lifecycle"], "--lifecycle"),
            (&["replay", "bug-dir"], "bug-dir"),
            (&["replay", "--trace", "bug-dir", "--workers", "2"], "--workers"),
        ] {
            let err = check_flags(&argv(list)).unwrap_err();
            assert!(err.contains(named), "{list:?}: {err}");
        }
        for list in [
            &["asm", "a.s", "-o", "a.dxe"][..],
            &["export", "pcnet", "-o", "p.dxe"],
            &["replay", "--trace", "bug-dir", "--driver", "p.dxe", "--audio", "--lifecycle"],
            &["disas", "pcnet"],
            &["info", "pcnet"],
            &["triage", "store"],
            &["list"],
        ] {
            check_flags(&argv(list)).expect("known flags");
        }
        let ok = argv(&["test", "pcnet", "--no-memcheck", "--no-query-cache", "--registry", "K=7"]);
        check_flags(&ok).expect("known flags");
        let config = parse_config(&ok).expect("config parses");
        assert!(!config.check_memory && !config.use_query_cache);
        let dut = parse_target(&ok).expect("target parses");
        assert!(dut.registry.contains(&("K".to_string(), 7)));
    }

    #[test]
    fn serve_forwards_only_the_flags_a_worker_accepts() {
        let serve = argv(&[
            "serve", "pcnet", "--workers", "2", "--faults", "--json", "r.json", "--heartbeat-ms",
            "50", "--no-memcheck", "--trace-dir", "t", "--health", "--registry", "K=7",
        ]);
        check_flags(&serve).expect("serve flags");
        let worker = worker_args_from(&serve);
        assert_eq!(
            worker,
            argv(&[
                "worker", "pcnet", "--faults", "--heartbeat-ms", "50", "--no-memcheck",
                "--registry", "K=7",
            ])
        );
        let mut spawned = worker.clone();
        spawned.extend(argv(&["--worker-id", "3"]));
        check_flags(&spawned).expect("a worker accepts what serve forwards");
    }
}
