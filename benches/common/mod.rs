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

/// The checked-out revision (`-dirty` with uncommitted changes), or
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
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
