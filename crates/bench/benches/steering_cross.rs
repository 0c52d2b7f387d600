//! Timing harness for the (steering policy × topology) cross: one serial
//! one-core run per pair at the 8-cluster 1-bus 2IW design point, recording
//! simulated Mcycles per wall-second per pair in the `steering_cross`
//! section of the repository-root `BENCH_core.json` (shared with
//! `core_throughput`, which owns the per-topology default-steering rows).
//!
//! Like `core_throughput`: fixed window, no result store, pre-warmed
//! traces — the numbers isolate the simulator's hot-loop cost of each
//! policy/fabric combination, so a steering-layer or interconnect change
//! that slows any pair shows up in the perf trajectory PR over PR.

use std::time::Instant;

use rcmc_bench::update_bench_core;
use rcmc_sim::config::{make_pair, steering_name, topology_name, ALL_STEERINGS, ALL_TOPOLOGIES};
use rcmc_sim::runner::{cached_trace, Budget};
use serde_json::Value;

const BENCHES: [&str; 2] = ["gzip", "swim"];

fn main() {
    let budget = Budget {
        warmup: 5_000,
        measure: 60_000,
    };
    // Held for the whole bench, so no timed pass emulates.
    let traces = BENCHES.map(|b| cached_trace(b, budget.trace_len()));

    println!("\nSteering-cross throughput (serial, one core, 8clus_1bus_2IW)");
    println!("-------------------------------------------------------------");
    let mut pairs = Vec::new();
    for topo in ALL_TOPOLOGIES {
        for steering in ALL_STEERINGS {
            let cfg = make_pair(topo, steering, 8, 2, 1);
            let mut cycles = 0u64;
            let mut committed = 0u64;
            let t0 = Instant::now();
            for trace in &traces {
                let mut core = rcmc_core::Core::new(cfg.core.clone(), cfg.mem, cfg.pred, trace);
                let s = core.run_with_warmup(budget.warmup, budget.measure);
                cycles += s.cycles;
                committed += s.committed;
            }
            let dt = t0.elapsed().as_secs_f64();
            let mcps = cycles as f64 / dt / 1e6;
            println!(
                "{:6} x {:6} {cycles:>9} cycles {dt:>7.3} s  {mcps:>7.2} Mcycles/s",
                topology_name(topo),
                steering_name(steering),
            );
            pairs.push(Value::Obj(vec![
                ("topology".into(), Value::Str(topology_name(topo).into())),
                (
                    "steering".into(),
                    Value::Str(steering_name(steering).into()),
                ),
                ("cycles".into(), Value::Num(cycles as f64)),
                ("committed".into(), Value::Num(committed as f64)),
                ("wall_s".into(), Value::Num((dt * 1e3).round() / 1e3)),
                (
                    "mcycles_per_s".into(),
                    Value::Num((mcps * 1e3).round() / 1e3),
                ),
            ]));
        }
    }

    update_bench_core(
        "steering_cross",
        Value::Obj(vec![
            ("benches".into(), Value::Str("gzip+swim".into())),
            ("warmup".into(), Value::Num(budget.warmup as f64)),
            ("measure".into(), Value::Num(budget.measure as f64)),
            ("pairs".into(), Value::Arr(pairs)),
        ]),
    );
}
