//! A suite benchmark's trace is always emulated, never read from or
//! written to a trace store, even when a session has one attached. A test
//! binary of its own, so the process-wide trace counters see only the
//! runs made here.

use rcmc_emu::TraceDb;
use rcmc_sim::runner::{trace_cache_stats, Budget, ResultStore};
use rcmc_sim::{Plan, Session};

#[test]
fn a_suite_plan_never_touches_the_trace_store() {
    let dir = std::env::temp_dir().join(format!("rcmc-suite-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = Plan::new("suite")
        .config_named("Ring_4clus_1bus_2IW")
        .benches(["gzip", "swim"])
        .budget(Budget {
            warmup: 500,
            measure: 3_000,
        });
    let before = trace_cache_stats();
    let rs = Session::with_store(ResultStore::ephemeral())
        .with_trace_store(TraceDb::at(dir.clone()))
        .with_jobs(1)
        .run(&plan)
        .unwrap();
    assert_eq!(rs.len(), 2);
    let after = trace_cache_stats();
    assert_eq!(after.built - before.built, 2, "one emulation per bench");
    assert_eq!(
        after.db_hits - before.db_hits,
        0,
        "a suite trace was loaded"
    );
    assert!(!dir.exists(), "a suite run created the trace store {dir:?}");
}
