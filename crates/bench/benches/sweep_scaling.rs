//! Timing harness for the job engine: run one tiny
//! (configuration × benchmark) plan serially and again on 4 workers, verify
//! the results are bit-identical, and record both wall-clock numbers in
//! `BENCH_sweep.json` at the repository root so the perf trajectory is
//! tracked PR over PR.
//!
//! The window is fixed (not `RCMC_INSTRS`) and the sessions are ephemeral,
//! so both timings measure pure simulation work and stay comparable run to
//! run. Oracle traces are pre-materialized before either timing and that
//! phase is timed and reported separately (`trace_build_s`, with the
//! emulated-vs-loaded-from-store split), so the sweep numbers measure
//! parallel-sweep scaling and nothing else. Note: on a single-core machine
//! the parallel number will roughly match the serial one — the point of
//! the file is the trajectory, not a pass/fail gate.

use std::time::Instant;

use rcmc_sim::runner::{cached_trace, trace_cache_stats, Budget};
use rcmc_sim::{Plan, Session};

const PAR_JOBS: usize = 4;

fn main() {
    let budget = Budget {
        warmup: 2_000,
        measure: 10_000,
    };
    let benches = ["swim", "gzip", "mcf", "galgel", "ammp", "gcc"];
    let plan = Plan::new("sweep-scaling")
        .config_named("Ring_4clus_1bus_2IW")
        .config_named("Conv_4clus_1bus_2IW")
        .config_named("Ring_8clus_1bus_2IW")
        .config_named("Conv_8clus_1bus_2IW")
        .benches(benches)
        .budget(budget);
    // Held for the whole bench: both sessions share these traces instead
    // of emulating inside the timed runs.
    let t0 = Instant::now();
    let traces = benches.map(|b| cached_trace(b, budget.trace_len()));
    let trace_build_s = t0.elapsed().as_secs_f64();
    let ts = trace_cache_stats();

    let t0 = Instant::now();
    let serial = Session::ephemeral().with_jobs(1).run(&plan).unwrap();
    let serial_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let parallel = Session::ephemeral().with_jobs(PAR_JOBS).run(&plan).unwrap();
    let parallel_s = t0.elapsed().as_secs_f64();
    drop(traces);

    assert_eq!(
        serial, parallel,
        "jobs={PAR_JOBS} must be bit-identical to jobs=1"
    );

    let speedup = serial_s / parallel_s;
    println!(
        "\nSweep scaling ({} runs: 4 configs x 6 benches)",
        serial.len()
    );
    println!("------------------------------------------------");
    println!(
        "trace build     {trace_build_s:>8.3} s  ({} emulated, {} from store)",
        ts.built, ts.db_hits
    );
    println!("jobs=1          {serial_s:>8.3} s");
    println!("jobs={PAR_JOBS}          {parallel_s:>8.3} s");
    println!("speedup         {speedup:>8.2} x");

    let json = format!(
        "{{\n  \"bench\": \"sweep_tiny_grid\",\n  \"grid\": \"4 configs x 6 benches\",\n  \
         \"warmup\": {},\n  \"measure\": {},\n  \"trace_build_s\": {trace_build_s:.3},\n  \
         \"traces_emulated\": {},\n  \"traces_from_store\": {},\n  \
         \"serial_jobs1_s\": {serial_s:.3},\n  \
         \"parallel_jobs{PAR_JOBS}_s\": {parallel_s:.3},\n  \"speedup\": {speedup:.3},\n  \
         \"identical_results\": true\n}}\n",
        budget.warmup, budget.measure, ts.built, ts.db_hits
    );
    let out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_sweep.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
