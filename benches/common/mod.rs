//! Helpers the `core_throughput` and `trace_store` bench targets share.

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
pub fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
