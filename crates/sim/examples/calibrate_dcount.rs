//! Calibrate the DCOUNT-steered baseline of any topology: sweep the DCOUNT
//! threshold (difference in dispatched-but-unissued counts) and report
//! geometric-mean IPC over a representative subset, so every
//! conventional-style fabric is as strong as the paper's tuned steering.
//! The (threshold × benchmark) grid is one plan, the threshold an override
//! on each config entry; the per-threshold report order stays fixed.
//!
//! ```text
//! cargo run --release -p rcmc-sim --example calibrate_dcount [topology]
//! ```
//!
//! `topology` is any `--topology` spelling (default: `conv`). The winning
//! values are recorded as `CoreConfig::default_dcount_threshold`.
use rcmc_sim::{config, runner, ConfigSpec, Plan, Session};
use serde::json::Value;

fn die<T>(e: String) -> T {
    eprintln!("calibrate_dcount: {e}");
    std::process::exit(1);
}

fn main() {
    let topology = std::env::args().nth(1).unwrap_or_else(|| "conv".into());
    let budget = runner::Budget {
        warmup: 5_000,
        measure: 60_000,
    };
    let benches = [
        "swim", "galgel", "ammp", "lucas", "mcf", "gcc", "gzip", "twolf",
    ];
    let thresholds = [2.0f64, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0];
    // One config entry per threshold: the topology at 8 clusters, 1 bus,
    // 2-wide issue with DCOUNT steering and the threshold as an override.
    let mut plan = Plan::new("calibrate-dcount")
        .benches(benches)
        .budget(budget);
    for thr in thresholds {
        let spec = ConfigSpec {
            topology: Some(topology.clone()),
            steering: Some("dcount".into()),
            clusters: Some(8),
            iw: Some(2),
            buses: Some(1),
            ..ConfigSpec::default()
        };
        plan = plan.config(spec.with_override("dcount_threshold", Value::Num(thr)));
    }
    let cfgs = plan.resolve_configs().unwrap_or_else(die);
    let results = Session::ephemeral().run(&plan).unwrap_or_else(die);
    println!(
        "DCOUNT calibration on {} (8 clusters, 1 bus, 2IW):",
        config::topology_name(cfgs[0].core.topology)
    );
    let mut best = (f64::MIN, 0.0);
    for (thr, cfg) in thresholds.iter().zip(&cfgs) {
        let log_sum: f64 = benches
            .iter()
            .map(|&b| results.get(&cfg.name, b).expect("swept pair").ipc.ln())
            .sum();
        let geo = (log_sum / benches.len() as f64).exp();
        if geo > best.0 {
            best = (geo, *thr);
        }
        println!("thr {thr:>5}: geomean IPC {geo:.4}");
    }
    println!("best threshold: {} (geomean IPC {:.4})", best.1, best.0);
}
