//! Timing harness for the per-cycle hot loop: one serial one-core run per
//! topology, reporting simulated cycles (and committed instructions) per
//! wall-second, recorded in the `core_throughput` section of
//! `BENCH_core.json` at the repository root (shared with `steering_cross`)
//! so hot-loop regressions show up in the perf trajectory PR over PR.
//!
//! Every row is measured twice — event-driven (the default wheel that
//! fast-forwards dead cycles) and forced cycle-stepped — so each row
//! carries the wheel's skip rate, its exact skipped-cycle count (so a
//! change to a wake bound shows up exactly in the diff) and its speedup
//! over stepping every cycle. The stall-heavy long-hop row is where skipping pays most: long
//! bus reservations leave the pipeline with nothing to do for whole
//! windows at a time.
//!
//! The window is fixed (not `RCMC_INSTRS`) and the store is never consulted,
//! so the numbers measure pure simulation work and stay comparable run to
//! run. Traces are pre-warmed, so emulation cost is excluded. A mix of one
//! communication-heavy INT and one FP benchmark keeps both the steering and
//! the issue/bus paths hot.
//!
//! The `cluster_scaling` rows sweep `n_clusters` up to the MAX_CLUSTERS=64
//! ceiling on the sparse active-cluster scans (the only issue/idle path
//! since the dense escape hatch was deleted), and the `machine_grid` rows
//! time every machine-registry family on the ring and the conventional
//! bus — regressions in a family's sizing (a 512-entry ROB, a 2-cluster
//! embedded core) show up in the perf trajectory like any topology row.

use std::sync::Arc;
use std::time::Instant;

use rcmc_bench::update_bench_core;
use rcmc_core::Topology;
use rcmc_emu::DynInsn;
use rcmc_sim::config::{make, topology_name, SimConfig, ALL_TOPOLOGIES};
use rcmc_sim::plan::ConfigSpec;
use rcmc_sim::runner::{cached_trace, Budget};
use serde_json::Value;

const BENCHES: [&str; 2] = ["gzip", "swim"];

/// One measurement pass over both benchmarks' traces: total (cycles,
/// committed, skipped, whole-run cycles, wall seconds).
fn run_mode(
    traces: &[Arc<Vec<DynInsn>>],
    cfg: &SimConfig,
    budget: &Budget,
    event_driven: bool,
) -> (u64, u64, u64, u64, f64) {
    let (mut cycles, mut committed, mut skipped, mut total) = (0u64, 0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for trace in traces {
        let mut core = rcmc_core::Core::new(cfg.core.clone(), cfg.mem, cfg.pred, trace);
        core.set_event_driven(event_driven);
        let s = core.run_with_warmup(budget.warmup, budget.measure);
        cycles += s.cycles;
        committed += s.committed;
        skipped += core.skipped_cycles();
        total += core.stats().cycles;
    }
    (
        cycles,
        committed,
        skipped,
        total,
        t0.elapsed().as_secs_f64(),
    )
}

fn main() {
    let budget = Budget {
        warmup: 5_000,
        measure: 60_000,
    };
    // Held for the whole bench, so no timed pass emulates.
    let traces = BENCHES.map(|b| cached_trace(b, budget.trace_len()));

    let mut rows: Vec<(String, SimConfig)> = ALL_TOPOLOGIES
        .iter()
        .map(|&t| (topology_name(t).to_string(), make(t, 8, 2, 1)))
        .collect();
    // Stall-heavy rows: a long hop stretches every bus reservation, so
    // dispatch and issue spend most cycles waiting — the wheel's best case.
    // 7 is the longest hop the 64-cycle reservation window admits on an
    // 8-cluster segmented bus.
    for (topo, hop) in [
        (Topology::Conv, 4),
        (Topology::Conv, 7),
        (Topology::Ring, 7),
    ] {
        let mut cfg = make(topo, 8, 2, 1);
        cfg.core.hop_latency = hop;
        rows.push((format!("{}~hop{hop}", topology_name(topo)), cfg));
    }
    // Memory-bound row: a tiny L1D and a long miss penalty leave the
    // pipeline with whole hundreds-of-cycles windows where nothing can
    // retire, issue or dispatch — exactly what the wheel fast-forwards.
    let mut slow = make(Topology::Conv, 8, 2, 1);
    slow.mem.l1d.size = 1024;
    slow.mem.l1d.ways = 1;
    slow.mem.l2.size = 4 * 1024;
    slow.mem.mem_latency = 400;
    rows.push(("Conv~slowmem".into(), slow));

    println!("\nCore throughput (serial, one core, 8clus_1bus_2IW)");
    println!("---------------------------------------------------");
    let mut runs = Vec::new();
    for (name, cfg) in &rows {
        let (cycles, committed, skipped, total, dt) = run_mode(&traces, cfg, &budget, true);
        let (_, _, _, _, dt_stepped) = run_mode(&traces, cfg, &budget, false);
        let mcps = cycles as f64 / dt / 1e6;
        let mips = committed as f64 / dt / 1e6;
        let mcps_stepped = cycles as f64 / dt_stepped / 1e6;
        let skip_rate = skipped as f64 / total as f64;
        let speedup = dt_stepped / dt;
        println!(
            "{name:10} {cycles:>9} cycles {committed:>7} insns {dt:>7.3} s  \
             {mcps:>7.2} Mcycles/s {mips:>6.2} Minsns/s  \
             skip {:>5.1}%  {speedup:>5.2}x vs stepped",
            skip_rate * 1e2
        );
        runs.push(Value::Obj(vec![
            ("topology".into(), Value::Str(name.clone())),
            ("cycles".into(), Value::Num(cycles as f64)),
            ("committed".into(), Value::Num(committed as f64)),
            ("wall_s".into(), Value::Num((dt * 1e3).round() / 1e3)),
            (
                "mcycles_per_s".into(),
                Value::Num((mcps * 1e3).round() / 1e3),
            ),
            (
                "minsns_per_s".into(),
                Value::Num((mips * 1e3).round() / 1e3),
            ),
            ("event_driven".into(), Value::Bool(true)),
            (
                "skip_rate".into(),
                Value::Num((skip_rate * 1e4).round() / 1e4),
            ),
            ("skipped_cycles".into(), Value::Num(skipped as f64)),
            (
                "mcycles_per_s_stepped".into(),
                Value::Num((mcps_stepped * 1e3).round() / 1e3),
            ),
            (
                "speedup_vs_stepped".into(),
                Value::Num((speedup * 1e3).round() / 1e3),
            ),
        ]));
    }

    // Cluster-count scaling on the sparse active-cluster scans. Hier keeps
    // a single shared inter-group link at every size, so most of a big
    // machine sits idle-but-allocated — exactly what the
    // `ready_mask`/`comm_mask` walks skip. Throughput should degrade far
    // slower than linearly in n_clusters.
    println!("\nCluster scaling (Hier, 1 bus, 2IW, sparse scans)");
    println!("------------------------------------------------");
    let mut scaling = Vec::new();
    for n in [4usize, 16, 32, 64] {
        let cfg = make(Topology::Hier, n, 2, 1);
        let (cycles, committed, _, _, dt) = run_mode(&traces, &cfg, &budget, true);
        let mcps = cycles as f64 / dt / 1e6;
        println!(
            "Hier{n:<3}    {cycles:>9} cycles {committed:>7} insns  \
             {mcps:>7.2} Mcycles/s",
        );
        scaling.push(Value::Obj(vec![
            ("topology".into(), Value::Str(format!("Hier{n}"))),
            ("n_clusters".into(), Value::Num(n as f64)),
            ("cycles".into(), Value::Num(cycles as f64)),
            ("committed".into(), Value::Num(committed as f64)),
            (
                "mcycles_per_s".into(),
                Value::Num((mcps * 1e3).round() / 1e3),
            ),
        ]));
    }

    // Machine-registry grid: every family on the ring and the conventional
    // bus, built exactly the way plan specs build them (ConfigSpec
    // resolution, so names carry the `~m:` tags and the timings correspond
    // to real store rows).
    println!("\nMachine grid (registry families x ring/conv)");
    println!("--------------------------------------------");
    let mut machine_grid = Vec::new();
    for family in rcmc_sim::machines::REGISTRY.iter() {
        for topo in ["ring", "conv"] {
            let cfg = ConfigSpec {
                machine: Some(family.name.to_string()),
                topology: Some(topo.to_string()),
                ..ConfigSpec::default()
            }
            .resolve()
            .expect("registry family resolves")
            .remove(0);
            let (cycles, committed, _, _, dt) = run_mode(&traces, &cfg, &budget, true);
            let mcps = cycles as f64 / dt / 1e6;
            let ipc = committed as f64 / cycles as f64;
            println!(
                "{:<10} {:<42} {cycles:>9} cycles  ipc {ipc:>5.3}  {mcps:>7.2} Mcycles/s",
                family.name, cfg.name
            );
            machine_grid.push(Value::Obj(vec![
                ("family".into(), Value::Str(family.name.to_string())),
                ("config".into(), Value::Str(cfg.name.clone())),
                ("cycles".into(), Value::Num(cycles as f64)),
                ("committed".into(), Value::Num(committed as f64)),
                ("ipc".into(), Value::Num((ipc * 1e4).round() / 1e4)),
                (
                    "mcycles_per_s".into(),
                    Value::Num((mcps * 1e3).round() / 1e3),
                ),
            ]));
        }
    }

    update_bench_core(
        "core_throughput",
        Value::Obj(vec![
            ("benches".into(), Value::Str("gzip+swim".into())),
            ("warmup".into(), Value::Num(budget.warmup as f64)),
            ("measure".into(), Value::Num(budget.measure as f64)),
            ("runs".into(), Value::Arr(runs)),
            ("cluster_scaling".into(), Value::Arr(scaling)),
            ("machine_grid".into(), Value::Arr(machine_grid)),
        ]),
    );
}
