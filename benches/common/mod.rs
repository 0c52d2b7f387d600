//! Helpers the bench targets share.

use std::path::Path;

use serde::json::Value;

/// A JSON object with `fields` in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The checked-out revision, `-dirty` when a tracked file other than a
/// `BENCH_*.json` snapshot differs from it, or `unknown` outside a git
/// checkout. Each bench rewrites its own tracked snapshot, so counting
/// those would mark every run after the first `-dirty`.
fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|out| out.status.success())
    };
    let Some(rev) = git(&["describe", "--always", "--abbrev=12"]) else {
        return "unknown".into();
    };
    let rev = String::from_utf8_lossy(&rev.stdout).trim().to_string();
    let snapshots = ":(top,exclude)BENCH_*.json";
    match git(&["diff", "--quiet", "HEAD", "--", ":(top)", snapshots]) {
        Some(_) => rev,
        None => format!("{rev}-dirty"),
    }
}

/// A `_meta` object: the bench's name, the host's core count and the
/// revision at `root`, then `fields`.
pub fn meta(bench: &str, root: &Path, mut fields: Vec<(&str, Value)>) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut head = vec![
        ("bench", Value::Str(bench.into())),
        ("nproc", Value::Num(nproc as f64)),
        ("git_rev", Value::Str(git_rev(root))),
    ];
    head.append(&mut fields);
    obj(head)
}
