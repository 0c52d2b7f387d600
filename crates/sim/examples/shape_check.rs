//! Quick directional check: Ring vs Conv on a few benchmarks.
//!
//! The (config × bench) grid runs as one plan (`RCMC_JOBS` caps the
//! workers), then prints in fixed benchmark order — the output is
//! identical at any worker count.
use rcmc_sim::{config, runner, Plan, Session};
use std::time::Instant;

fn main() {
    let budget = runner::Budget {
        warmup: 10_000,
        measure: 100_000,
    };
    let session = Session::ephemeral();
    let benches = [
        "swim", "galgel", "ammp", "equake", "mcf", "gcc", "gzip", "crafty",
    ];
    let cfgs = [
        config::make(rcmc_core::Topology::Ring, 8, 2, 1),
        config::make(rcmc_core::Topology::Conv, 8, 2, 1),
    ];
    let plan = Plan::new("shape-check")
        .config_named(&cfgs[0].name)
        .config_named(&cfgs[1].name)
        .benches(benches)
        .budget(budget);
    let t0 = Instant::now();
    let results = session.run(&plan).expect("preset plan resolves");
    let mut total_insns = 0u64;
    for b in benches {
        let mut line = format!("{b:8}");
        let mut ipcs = Vec::new();
        for cfg in &cfgs {
            let r = results.get(&cfg.name, b).expect("swept pair");
            line += &format!(
                "  {}: ipc {:.3} cpi-comm {:.3} dist {:.2} wait {:.2} nready {:.2} bmiss {:.3}",
                &cfg.name[..4],
                r.ipc,
                r.comms_per_insn,
                r.dist_per_comm,
                r.wait_per_comm,
                r.nready,
                r.branch_miss_rate
            );
            ipcs.push(r.ipc);
            total_insns += r.committed;
        }
        line += &format!("  speedup {:+.1}%", (ipcs[0] / ipcs[1] - 1.0) * 100.0);
        println!("{line}");
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "simulated {total_insns} instructions in {dt:.1}s = {:.2} M instr/s ({} jobs)",
        total_insns as f64 / dt / 1e6,
        runner::default_jobs()
    );
}
