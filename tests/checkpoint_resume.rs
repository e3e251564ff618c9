//! Crash-safety integration tests for durable campaigns (§4.7), driven
//! through the real `ddt` binary: a campaign killed with SIGKILL at an
//! arbitrary instant must leave a loadable store, and `--resume` must run
//! it to a report identical to the uninterrupted reference — bug set,
//! solved inputs, and coverage — for both the serial and the parallel
//! explorer.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

fn ddt_bin() -> &'static str {
    env!("CARGO_BIN_EXE_ddt")
}

/// The workspace's offline `serde` stand-in exposes reports as a
/// [`Value`] tree; this wrapper lets `from_slice` hand the tree back raw.
struct Raw(Value);

impl serde::Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Raw(v.clone()))
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("report field {key:?} missing")),
        other => panic!("expected a map for {key:?}, got {other:?}"),
    }
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        other => panic!("expected an integer, got {other:?}"),
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddt-ckres-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `ddt test` to completion with `--json`, returning the parsed
/// report. Exit code 1 (defects found) is success here.
fn run_json(args: &[&str], tag: &str) -> Value {
    let json = std::env::temp_dir().join(format!("ddt-ckres-{}-{tag}.json", std::process::id()));
    let _ = std::fs::remove_file(&json);
    let out = Command::new(ddt_bin())
        .args(args)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn ddt");
    let code = out.status.code();
    assert!(
        matches!(code, Some(0) | Some(1)),
        "ddt {args:?} exited with {code:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&json).expect("report json written");
    let _ = std::fs::remove_file(&json);
    let raw: Raw = serde_json::from_slice(&bytes).expect("report parses");
    raw.0
}

/// The fields a resumed campaign must reproduce exactly: per-bug key,
/// class, attributed pc, solved concrete inputs, and sighting count, plus
/// the block coverage — sorted so exploration order cannot matter.
fn essence(report: &Value) -> (Vec<String>, u64, u64) {
    let Value::List(bug_list) = get(report, "bugs") else { panic!("bugs not a list") };
    let mut bugs: Vec<String> = bug_list
        .iter()
        .map(|b| {
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}",
                get(b, "key"),
                get(b, "class"),
                get(b, "pc"),
                get(b, "inputs"),
                get(b, "occurrences")
            )
        })
        .collect();
    bugs.sort();
    (
        bugs,
        as_u64(get(report, "covered_blocks")),
        as_u64(get(report, "total_blocks")),
    )
}

/// Bug keys only — the schedule-independent comparison for parallel runs.
fn keys(report: &Value) -> Vec<String> {
    let Value::List(bug_list) = get(report, "bugs") else { panic!("bugs not a list") };
    let mut ks: Vec<String> = bug_list.iter().map(|b| format!("{:?}", get(b, "key"))).collect();
    ks.sort();
    ks
}

/// Starts a pcnet fault campaign that checkpoints every 4 quanta and kills
/// it after its first checkpoint (see [`kill_after_first_checkpoint`]).
fn kill_mid_campaign(dir: &Path, extra: &[&str]) {
    let args = [&["test", "pcnet", "--faults", "--checkpoint-every", "4"][..], extra].concat();
    kill_after_first_checkpoint(dir, &args);
}

/// Starts the campaign `args` (checkpointing into `dir`) in a child
/// process, waits until its first checkpoint lands on disk, then SIGKILLs
/// it — the kill races freely against journal appends and checkpoint
/// writes, which is the point. Returns false if the campaign finished
/// before it could be killed.
fn kill_after_first_checkpoint(dir: &Path, args: &[&str]) -> bool {
    let mut child = Command::new(ddt_bin())
        .args(args)
        .arg("--checkpoint-dir")
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn campaign child");
    let deadline = Instant::now() + Duration::from_secs(60);
    let has_checkpoint = |d: &Path| {
        std::fs::read_dir(d).ok().is_some_and(|rd| {
            rd.flatten().any(|e| {
                let n = e.file_name();
                let n = n.to_string_lossy().into_owned();
                n.starts_with("checkpoint-") && n.ends_with(".ddtc")
            })
        })
    };
    while !has_checkpoint(dir) {
        assert!(Instant::now() < deadline, "no checkpoint appeared within 60s");
        if child.try_wait().expect("try_wait").is_some() {
            // The campaign finished before we could kill it; the resume
            // below then exercises the finished-rebuild path instead.
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL child"); // std kill == SIGKILL on unix
    child.wait().expect("reap child");
    true
}

#[test]
fn serial_sigkill_resume_matches_uninterrupted() {
    let reference = run_json(&["test", "pcnet", "--faults"], "serial-ref");
    let dir = tmp("serial-kill");
    kill_mid_campaign(&dir, &[]);
    let resumed = run_json(
        &["test", "pcnet", "--faults", "--resume", dir.to_str().unwrap()],
        "serial-res",
    );
    assert_eq!(essence(&resumed), essence(&reference), "resumed report diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_sigkill_resume_matches_uninterrupted() {
    let reference = run_json(&["test", "pcnet", "--faults"], "par-ref");
    let dir = tmp("par-kill");
    kill_mid_campaign(&dir, &["--workers", "4"]);
    let resumed = run_json(
        &["test", "pcnet", "--faults", "--workers", "4", "--resume", dir.to_str().unwrap()],
        "par-res",
    );
    assert_eq!(keys(&resumed), keys(&reference), "parallel resume changed the bug set");
    assert_eq!(
        as_u64(get(&resumed, "covered_blocks")),
        as_u64(get(&reference, "covered_blocks")),
        "parallel resume changed coverage"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A parallel campaign whose frontier is large (ac97 under lifecycle and
/// fault injection peaks at thousands of pending states), so the
/// checkpoint that gets resumed is a periodic cut whose file was written
/// while the workers had already resumed exploring.
#[test]
fn parallel_sigkill_resume_from_a_large_frontier() {
    let flags = ["test", "ac97", "--faults", "--lifecycle", "--workers", "2"];
    let reference = run_json(&flags, "ac97-par-ref");
    let dir = tmp("ac97-par-kill");
    let killed =
        kill_after_first_checkpoint(&dir, &[&flags[..], &["--checkpoint-every", "64"]].concat());
    let resumed =
        run_json(&[&flags[..], &["--resume", dir.to_str().unwrap()]].concat(), "ac97-par-res");
    assert_eq!(keys(&resumed), keys(&reference), "parallel resume changed the bug set");
    assert_eq!(
        as_u64(get(&resumed, "covered_blocks")),
        as_u64(get(&reference, "covered_blocks")),
        "parallel resume changed coverage"
    );
    if killed {
        let health = get(&resumed, "health");
        assert!(
            as_u64(get(health, "resume_replayed_paths")) > 0,
            "the resumed checkpoint carried no frontier"
        );
        assert_eq!(as_u64(get(health, "resume_replay_failures")), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every other bundled driver, serial, without fault injection: the kill
/// may land anywhere, including before any exploration happened.
#[test]
fn sigkill_resume_across_bundled_drivers() {
    for driver in ["rtl8029", "ensoniq", "clean_nic"] {
        let reference = run_json(&["test", driver], &format!("{driver}-ref"));
        let dir = tmp(&format!("{driver}-kill"));
        let mut child = Command::new(ddt_bin())
            .args(["test", driver, "--checkpoint-dir"])
            .arg(&dir)
            .args(["--checkpoint-every", "4"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn campaign child");
        std::thread::sleep(Duration::from_millis(40));
        let finished = child.try_wait().expect("try_wait").is_some();
        if !finished {
            child.kill().expect("SIGKILL child");
            child.wait().expect("reap child");
        }
        // A kill before the first checkpoint leaves nothing to resume —
        // that must surface as a clear error, not a panic (covered below);
        // here we only demand equivalence when a store exists.
        let any_checkpoint = std::fs::read_dir(&dir).ok().is_some_and(|rd| {
            rd.flatten().any(|e| e.file_name().to_string_lossy().ends_with(".ddtc"))
        });
        if any_checkpoint {
            let resumed = run_json(
                &["test", driver, "--resume", dir.to_str().unwrap()],
                &format!("{driver}-res"),
            );
            assert_eq!(essence(&resumed), essence(&reference), "{driver}: resume diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Strategy state survives the checkpoint: a campaign killed under each
/// strategy (the per-state coverage stamps must round-trip through the
/// store) resumes with `--strategy` to the same report as the
/// uninterrupted run under the same flag.
#[test]
fn sigkill_resume_round_trips_every_strategy() {
    for strategy in ["fifo", "coverage-new-first"] {
        let flags = ["--strategy", strategy];
        let reference = run_json(
            &[&["test", "pcnet", "--faults"][..], &flags[..]].concat(),
            &format!("strat-{strategy}-ref"),
        );
        let dir = tmp(&format!("strat-{strategy}-kill"));
        kill_mid_campaign(&dir, &flags);
        let resumed = run_json(
            &[
                &["test", "pcnet", "--faults", "--resume", dir.to_str().unwrap()],
                &flags[..],
            ]
            .concat(),
            &format!("strat-{strategy}-res"),
        );
        assert_eq!(
            essence(&resumed),
            essence(&reference),
            "{strategy}: resume diverged from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint taken under one strategy refuses to resume under another:
/// the config fingerprint covers `--strategy`.
#[test]
fn resume_refuses_a_strategy_mismatch() {
    let dir = tmp("strat-mismatch");
    let _ = run_json(
        &["test", "clean_nic", "--strategy", "coverage-new-first", "--checkpoint-dir",
          dir.to_str().unwrap()],
        "strat-mismatch-full",
    );
    let out = Command::new(ddt_bin())
        .args(["test", "clean_nic", "--strategy", "fifo", "--resume", dir.to_str().unwrap()])
        .output()
        .expect("spawn ddt");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "expected a clean failure");
    assert!(
        stderr.contains("cannot resume campaign"),
        "missing diagnostic, stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_clean_finish_is_a_noop() {
    let dir = tmp("finish");
    let full = run_json(
        &["test", "clean_nic", "--checkpoint-dir", dir.to_str().unwrap()],
        "finish-full",
    );
    let resumed = run_json(
        &["test", "clean_nic", "--resume", dir.to_str().unwrap()],
        "finish-res",
    );
    assert_eq!(essence(&resumed), essence(&full));
    assert_eq!(
        as_u64(get(get(&resumed, "stats"), "insns")),
        as_u64(get(get(&full, "stats"), "insns")),
        "no-op resume re-explored paths"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_missing_empty_or_corrupt_dir_fails_cleanly() {
    let check = |dir: &Path, tag: &str| {
        let out = Command::new(ddt_bin())
            .args(["test", "pcnet", "--resume", dir.to_str().unwrap()])
            .output()
            .expect("spawn ddt");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: expected a clean failure");
        assert!(
            stderr.contains("cannot resume campaign"),
            "{tag}: missing diagnostic, stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{tag}: the tool panicked: {stderr}");
    };
    let missing = tmp("missing");
    check(&missing, "missing dir");
    let empty = tmp("empty");
    std::fs::create_dir_all(&empty).unwrap();
    check(&empty, "empty dir");
    let corrupt = tmp("corrupt");
    std::fs::create_dir_all(&corrupt).unwrap();
    std::fs::write(corrupt.join("checkpoint-000000.ddtc"), b"DDTC\x07not a checkpoint").unwrap();
    check(&corrupt, "corrupt checkpoint");
    let _ = std::fs::remove_dir_all(&empty);
    let _ = std::fs::remove_dir_all(&corrupt);
}
