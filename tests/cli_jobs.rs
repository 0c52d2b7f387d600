//! CLI guard rails for the sweep worker count and the other `RCMC_*`
//! settings: `--jobs 0` and any set `RCMC_JOBS`, `RCMC_INSTRS` or
//! `RCMC_WARMUP` that is not a whole number in range must fail fast with
//! exit code 2 and the usage text, never silently fall back to a default.
//! The worker count is the session's: a plan spec carrying `"jobs"` is
//! refused by `plan run` and `serve` alike.

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
