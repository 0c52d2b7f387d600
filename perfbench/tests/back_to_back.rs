//! Two back-to-back runs of a workload, each in its own process as the
//! benchmark driver runs them, do identical setup work: the same number of
//! emulated and decoded traces, and no memoized rows in the sweeps — so no
//! run warms the next.

use std::process::Command;

use serde::json::Value;

/// Run a workload at its shortest length (one round of a sweep); returns
/// its `_meta` object.
fn run(workload: &str, seed: u64) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_rcmc-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = serde::json::parse(lines[lines.len() - 1]).expect("a JSON result line");
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{result:?}"
    );
    assert_eq!(result.get("failed"), Some(&Value::Num(0.0)));
    serde::json::parse(lines[lines.len() - 2])
        .and_then(|v| v.get("_meta").cloned())
        .expect("a _meta line before the result")
}

fn same_setup(workload: &str, keys: &[&str]) -> Value {
    let a = run(workload, 1);
    let b = run(workload, 2);
    for key in keys {
        assert!(a.get(key).is_some(), "{workload}: no {key} in _meta");
        assert_eq!(
            a.get(key),
            b.get(key),
            "{workload}: {key} differs between runs"
        );
    }
    a
}

#[test]
fn sweeps_do_the_same_setup_work_and_memoize_nothing() {
    let keys = ["setup_emulated", "setup_decoded", "memoized_rows"];
    for (workload, traces) in [("paper-sweep", 26.0), ("stall-sweep", 8.0)] {
        let meta = same_setup(workload, &keys);
        assert_eq!(meta.get("setup_emulated"), Some(&Value::Num(traces)));
        assert_eq!(meta.get("setup_decoded"), Some(&Value::Num(0.0)));
        assert_eq!(meta.get("memoized_rows"), Some(&Value::Num(0.0)));
    }
}

#[test]
fn serve_does_the_same_setup_work() {
    let meta = same_setup("serve-mixed", &["setup_emulated", "warmup_executed"]);
    // The warm-up simulates every lookup job: nothing was memoized before.
    assert_eq!(meta.get("warmup_executed"), Some(&Value::Num(32.0)));
}
