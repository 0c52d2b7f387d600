//! Trace lifetime under the job engine: every executed suite job emulates
//! its own trace as it runs, whatever the worker count, and no trace is
//! held once the run returns. A test binary of its own, so the
//! process-wide trace counters see only the runs made here.

use rcmc_sim::runner::{trace_cache_bytes, trace_cache_stats, Budget};
use rcmc_sim::{Plan, Session};

#[test]
fn a_plan_emulates_once_per_executed_suite_job() {
    let plan = Plan::new("lifetime")
        .config_named("Ring_4clus_1bus_2IW")
        .config_named("Conv_4clus_1bus_2IW")
        .config_named("Ring_8clus_1bus_2IW")
        .benches(["swim", "gzip", "mcf", "vpr"])
        .budget(Budget {
            warmup: 500,
            measure: 2_000,
        });
    for jobs in [1, 2] {
        let before = trace_cache_stats().built;
        // No result store and no trace store: all 12 jobs execute.
        let rs = Session::ephemeral().with_jobs(jobs).run(&plan).unwrap();
        assert_eq!(rs.len(), 12);
        let emulated = trace_cache_stats().built - before;
        assert_eq!(emulated, 12, "jobs {jobs}: one emulation per executed job");
        assert_eq!(trace_cache_bytes(), 0, "jobs {jobs}: a trace is cached");
    }
}
