//! CLI guard rails for the sweep worker count and the other `RCMC_*`
//! settings: `--jobs 0` and any set `RCMC_JOBS`, `RCMC_INSTRS` or
//! `RCMC_WARMUP` that is not a whole number in range must fail fast with
//! exit code 2 and the usage text, never silently fall back to a default.
//! The worker count is the session's: a plan spec carrying `"jobs"` is
//! refused by `plan run` and `serve` alike. A zero measurement window is
//! refused by the flag, the environment and the plan spec alike.

use std::process::Command;

fn rcmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rcmc"))
}

#[test]
fn jobs_zero_flag_exits_2_with_usage() {
    let out = rcmc().args(["figures", "--jobs", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs must be at least 1"), "{err}");
    assert!(err.contains("commands:"), "usage text missing: {err}");
}

#[test]
fn jobs_zero_env_exits_2_with_usage() {
    for (var, value, message) in [
        ("RCMC_JOBS", "0", "RCMC_JOBS must be at least 1"),
        ("RCMC_JOBS", "abc", "RCMC_JOBS must be at least 1"),
        ("RCMC_JOBS", "-1", "RCMC_JOBS must be at least 1"),
        ("RCMC_INSTRS", "20k", "RCMC_INSTRS must be at least 1"),
        ("RCMC_WARMUP", "-5", "RCMC_WARMUP must be at least 0"),
    ] {
        let out = rcmc().env(var, value).arg("list").output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{var}={value}: {err}");
        assert!(err.contains(&format!("got '{value}'")), "{err}");
        assert!(err.contains("commands:"), "usage text missing: {err}");
    }
    // A positive value is accepted (list does no sweeping — instant).
    let ok = rcmc().env("RCMC_JOBS", "2").arg("list").output().unwrap();
    assert!(ok.status.success(), "{ok:?}");
}

#[test]
fn plan_specs_carrying_jobs_are_refused() {
    let spec = r#"{"name": "j", "configs": [{"name": "Ring_4clus_1bus_2IW"}], "benches": ["swim"], "jobs": 2}"#;
    let path = std::env::temp_dir().join(format!("rcmc-jobs-spec-{}.json", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    let out = rcmc().args(["plan", "run"]).arg(&path).output().unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown plan key 'jobs'"), "{err}");

    use std::io::Write;
    use std::process::Stdio;
    let mut serve = rcmc()
        .args(["serve", "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = serve.stdin.take().unwrap();
    writeln!(stdin, r#"{{"id": 1, "op": "run", "plan": {spec}}}"#).unwrap();
    writeln!(stdin, r#"{{"op": "shutdown"}}"#).unwrap();
    drop(stdin);
    let out = serve.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let first = text.lines().next().unwrap_or_default();
    assert!(first.contains(r#""event":"error""#), "{text}");
    assert!(first.contains("unknown plan key 'jobs'"), "{text}");
}

/// A zero measurement window measures nothing, so every way to ask for one
/// is refused before anything simulates: `--instrs 0` exits 2 like
/// `RCMC_INSTRS=0`, and a plan spec with `"measure": 0` fails to parse in
/// `plan run` (exit 1) and in `serve` (an error event).
#[test]
fn a_zero_measurement_window_is_refused_everywhere() {
    let run = rcmc()
        .args(["run", "swim", "--instrs", "0"])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains("--instrs must be at least 1"), "{err}");
    assert!(
        !String::from_utf8_lossy(&run.stdout).contains("IPC"),
        "{run:?}"
    );

    let env = rcmc().env("RCMC_INSTRS", "0").arg("list").output().unwrap();
    assert_eq!(env.status.code(), Some(2), "{env:?}");

    let spec = r#"{"name": "z", "configs": [{"name": "Ring_4clus_1bus_2IW"}], "benches": ["swim"], "budget": {"measure": 0}}"#;
    let path = std::env::temp_dir().join(format!("rcmc-zero-spec-{}.json", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    let out = rcmc().args(["plan", "run"]).arg(&path).output().unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("'measure' must be at least 1"), "{err}");
    assert!(!err.contains("jobs:"), "the plan ran: {err}");

    use std::io::Write;
    use std::process::Stdio;
    let mut serve = rcmc()
        .args(["serve", "--jobs", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = serve.stdin.take().unwrap();
    writeln!(stdin, r#"{{"id": 1, "op": "run", "plan": {spec}}}"#).unwrap();
    writeln!(stdin, r#"{{"op": "shutdown"}}"#).unwrap();
    drop(stdin);
    let out = serve.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let first = text.lines().next().unwrap_or_default();
    assert!(first.contains(r#""event":"error""#), "{text}");
    assert!(first.contains("'measure' must be at least 1"), "{text}");
    assert!(!text.contains(r#""event":"result""#), "{text}");
}

/// A window shorter than the commit width can end inside warm-up's last
/// cycle, which may commit past both `warmup` and `warmup + measure`: it
/// would report 0 measured instructions and memoize that row. `rcmc run`
/// and `plan run` refuse it with exit 1 before anything simulates.
#[test]
fn a_window_below_the_commit_width_is_refused_and_saves_no_row() {
    let dir = std::env::temp_dir().join(format!("rcmc-short-window-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let want = "'measure' (1) is below the commit width (8) of configuration 'Ring_8clus_1bus_2IW'";
    let run = rcmc()
        .args(["run", "gzip", "--warmup", "1", "--instrs", "1"])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let err = String::from_utf8_lossy(&run.stderr);
    assert!(err.contains(want), "{err}");
    assert!(run.stdout.is_empty(), "{run:?}");
    assert!(!dir.exists(), "a refused run writes nothing");

    let spec = r#"{"name": "w", "configs": [{"name": "Ring_8clus_1bus_2IW"}], "benches": ["gzip"], "budget": {"warmup": 1, "measure": 7}}"#;
    let path = std::env::temp_dir().join(format!("rcmc-short-spec-{}.json", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    let out = rcmc()
        .args(["plan", "run"])
        .arg(&path)
        .arg("--store")
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("'measure' (7) is below the commit width (8)"),
        "{err}"
    );
    assert!(!err.contains("jobs:"), "the plan ran: {err}");
    assert!(!dir.exists(), "a refused plan writes nothing");

    // The shortest window the check allows runs and measures something.
    std::fs::write(&path, spec.replace("\"measure\": 7", "\"measure\": 8")).unwrap();
    let out = rcmc()
        .args(["plan", "run"])
        .arg(&path)
        .arg("--store")
        .arg(&dir)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("jobs: 1 executed"),
        "{out:?}"
    );
}

/// `jobs: N executed` counts simulations, not delivered pairs: two labels
/// of one machine (the preset, and an override restating its default
/// `rob`) share one job.
#[test]
fn plan_run_counts_simulations_not_labels() {
    let dir = std::env::temp_dir().join(format!("rcmc-two-labels-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("two_labels.json");
    std::fs::write(
        &spec,
        r#"{"name": "two-labels", "configs": [{"name": "Ring_4clus_1bus_2IW"}, {"topology": "ring", "clusters": 4, "overrides": {"rob": 256}}], "benches": ["swim"], "budget": {"warmup": 500, "measure": 2000}}"#,
    )
    .unwrap();
    let out = rcmc()
        .args(["plan", "run"])
        .arg(&spec)
        .arg("--store")
        .arg(dir.join("results"))
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("2 configurations × 1 benchmarks"), "{err}");
    assert!(err.contains("jobs: 1 executed, 0 memoized"), "{err}");
    assert!(err.contains("traces: 1 emulated"), "{err}");
}
