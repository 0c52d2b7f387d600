//! Micro-profile: one memory-bound benchmark, reporting cycles/sec.
use rcmc_sim::{runner, Plan, Session};
use std::time::Instant;

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let budget = runner::Budget {
        warmup: 5_000,
        measure: 50_000,
    };
    let session = Session::ephemeral().with_jobs(1);
    let plan = Plan::new("profile")
        .config_named("Ring_8clus_1bus_2IW")
        .bench(&bench)
        .budget(budget);
    let t0 = Instant::now();
    let rs = session.run(&plan).unwrap_or_else(|e| panic!("{e}"));
    let dt = t0.elapsed().as_secs_f64();
    let r = &rs.rows()[0];
    println!(
        "{bench}: {} cycles, {} committed, {:.1}s -> {:.2} M cycles/s, {:.2} M instr/s",
        r.cycles,
        r.committed,
        dt,
        r.cycles as f64 / dt / 1e6,
        r.committed as f64 / dt / 1e6
    );
}
