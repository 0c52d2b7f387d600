//! # rcmc-bench — benchmark harness support
//!
//! The paper's simulated figures (6–14) and the topology/steering
//! ablations are builtin plans: `rcmc figures` prints them all, and `rcmc
//! report <name>` (`fig06` … `fig14`, `topology`, `steering-cross`,
//! `steering-decomposition`) prints one. Table 1 and Figures 4–5 are part
//! of `rcmc figures` and `rcmc layout`. The `benches/` directory of this
//! crate holds what those commands never print, plus the perf trackers:
//!
//! | target | prints |
//! |--------|--------|
//! | `table2_config` | Table 2 processor configuration |
//! | `table3_configs` | Table 3 evaluated configurations |
//! | `fig03_placement` | Figure 3 die placement |
//! | `workload_mix` | the suite characterization table |
//! | `ablations` | beyond-paper studies (steering × topology, release policy, cluster/hop scaling) |
//! | `micro` | Criterion microbenchmarks of the simulator's hot components |
//! | `core_throughput`, `steering_cross` | hot-loop throughput into `BENCH_core.json` |
//!
//! `ablations` shares the workspace's disk-backed result store
//! (`target/rcmc-results/`) with the CLI, so each (configuration ×
//! benchmark) pair simulates once. Set `RCMC_INSTRS` / `RCMC_WARMUP` to
//! change the window (results are keyed by the window) and `RCMC_JOBS` to
//! cap the sweep worker count (default: all cores). The perf trackers
//! ignore the shared store and time fixed windows.

use std::path::PathBuf;

use serde_json::Value;

/// The repository-root `BENCH_core.json` tracking hot-loop throughput.
pub fn bench_core_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_core.json")
}

/// Read-modify-write one section of `BENCH_core.json`. Each perf bench
/// target owns one top-level key (`core_throughput`, `steering_cross`, ...)
/// and must leave the others intact, so running the targets in any order —
/// or only one of them — never loses the other's latest numbers. A missing
/// or unparseable file starts fresh.
pub fn update_bench_core(key: &str, section: Value) {
    let path = bench_core_path();
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .filter(|v| matches!(v, Value::Obj(_)))
        .unwrap_or(Value::Obj(Vec::new()));
    if let Value::Obj(members) = &mut root {
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = section,
            None => members.push((key.to_string(), section)),
        }
    }
    // Temp-file + atomic rename (same protocol as ResultStore::save): a
    // reader never sees a torn file. The read-modify-write itself is not
    // locked — two bench targets racing can still lose one section — so
    // run the perf targets sequentially (as CI does).
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let write = std::fs::write(&tmp, root.to_pretty_string() + "\n")
        .and_then(|()| std::fs::rename(&tmp, &path));
    match write {
        Ok(()) => println!("updated '{key}' in {}", path.display()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}
