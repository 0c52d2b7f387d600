//! Micro-profile: one memory-bound benchmark, reporting cycles/sec.
use rcmc_sim::{config, runner, Session};
use std::time::Instant;

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let budget = runner::Budget {
        warmup: 5_000,
        measure: 50_000,
    };
    let session = Session::ephemeral();
    let cfg = config::make(rcmc_core::Topology::Ring, 8, 2, 1);
    let t0 = Instant::now();
    let r = session.run_one(&cfg, &bench, &budget);
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "{bench}: {} cycles, {} committed, {:.1}s -> {:.2} M cycles/s, {:.2} M instr/s",
        r.cycles,
        r.committed,
        dt,
        r.cycles as f64 / dt / 1e6,
        r.committed as f64 / dt / 1e6
    );
}
