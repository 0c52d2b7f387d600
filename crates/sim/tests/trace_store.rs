//! Trace-store round trips at suite scale, cache fallthrough, and
//! imported traces as plan-resolvable workloads.
//!
//! The load-bearing guarantee: a trace pulled back out of the on-disk
//! store is **bit-identical** — dynamic instruction stream and whole-run
//! facts — to what the emulator produces fresh, for every benchmark in
//! the suite. Anything less and warm-started simulations would silently
//! diverge from cold ones.

use std::path::PathBuf;

use rcmc_emu::{trace_program, TraceCache, TraceDb};
use rcmc_sim::plan::Plan;
use rcmc_sim::runner::{all_bench_names, cached_trace_via, Budget, ResultStore};
use rcmc_sim::Session;
use rcmc_workloads::benchmark;

fn temp_db(tag: &str) -> (TraceDb, PathBuf) {
    let dir = std::env::temp_dir().join(format!("rcmc-tstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (TraceDb::at(dir.clone()), dir)
}

/// Every suite benchmark: emulate → persist → reload → compare, insns and
/// whole-run facts alike.
#[test]
fn all_suite_traces_round_trip_bit_identical() {
    let (db, dir) = temp_db("suite");
    let len = 12_000u64;
    for name in all_bench_names() {
        let fresh = trace_program(&benchmark(name).unwrap().build(), len as usize).unwrap();
        assert!(db.save(name, len, &fresh), "{name}: save failed");
        let stored = db.load_full(name, len).expect("just-saved trace loads");
        assert_eq!(stored.insns, fresh.insns, "{name}: dynamic stream differs");
        assert_eq!(stored.halted, fresh.halted, "{name}: halted differs");
        assert_eq!(
            stored.static_insns, fresh.static_insns,
            "{name}: static count differs"
        );
    }
    assert_eq!(db.list().len(), all_bench_names().len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache fallthrough contract: miss → emulate + persist; a second
/// (fresh) cache over the same store decodes instead of emulating, and
/// hands back the identical stream. `bytes()` tracks what's held either
/// way, and `clear()` drops memory but not the store.
#[test]
fn cache_falls_through_to_store_and_back() {
    let (db, dir) = temp_db("fallthrough");
    let len = 9_000u64;

    let cold = TraceCache::new();
    let from_emu = cold.get_or_build_via("swim", len, Some(&db), || {
        trace_program(&benchmark("swim").unwrap().build(), len as usize).unwrap()
    });
    let cs = cold.stats();
    assert_eq!((cs.built, cs.db_hits), (1, 0));
    assert!(db.contains("swim", len), "cold build must persist");
    assert!(cold.bytes() > 0, "bytes() must account the held trace");

    let warm = TraceCache::new();
    let from_db = warm.get_or_build_via("swim", len, Some(&db), || {
        panic!("warm start must not emulate")
    });
    let ws = warm.stats();
    assert_eq!((ws.built, ws.db_hits), (0, 1));
    assert_eq!(from_db, from_emu, "decoded and emulated traces differ");
    assert_eq!(warm.bytes(), cold.bytes());

    warm.clear();
    assert_eq!(warm.bytes(), 0);
    assert!(
        db.contains("swim", len),
        "clear() evicts memory, not the on-disk store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An imported trace is a first-class workload: plans resolve it, a
/// session with that store simulates it, and the longest stored length
/// serves any requested budget.
#[test]
fn imported_trace_is_a_plan_resolvable_workload() {
    let (db, dir) = temp_db("imported");
    let len = 6_000u64;
    let t = trace_program(&benchmark("mcf").unwrap().build(), len as usize).unwrap();
    // "Capture" externally: encode under a foreign name via a second
    // store, then import the raw file bytes under a new name.
    let (side, side_dir) = temp_db("imported-side");
    assert!(side.save("captured", len, &t));
    let raw = std::fs::read(side_dir.join("captured").join(format!("{len}.trc"))).unwrap();
    let (name, got_len) = db.import(&raw, Some("myext")).expect("import validates");
    assert_eq!((name.as_str(), got_len), ("myext", len));
    let _ = std::fs::remove_dir_all(&side_dir);

    // Unknown to a store-less resolve, known to one holding the import.
    let plan = Plan::new("t")
        .config_named("Ring_4clus_1bus_2IW")
        .bench("myext")
        .budget(Budget {
            warmup: 500,
            measure: 2_000,
        });
    assert!(plan.resolve_in(None).is_err());
    let (_, benches) = plan.resolve_in(Some(&db)).expect("import resolves");
    assert_eq!(benches, vec!["myext".to_string()]);

    // And it actually simulates through a session wired to that store.
    let session = Session::with_store(ResultStore::ephemeral())
        .with_trace_store(db.clone())
        .with_jobs(1);
    let rs = session.run(&plan).expect("imported workload runs");
    assert_eq!(rs.len(), 1);
    assert!(rs.rows()[0].ipc > 0.0, "imported workload must simulate");

    // The longest stored length serves shorter/longer budgets too.
    let longest = cached_trace_via("myext", 50_000, Some(&db));
    assert_eq!(longest.len(), t.insns.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm-starting a sweep through the store must not change results:
/// same grid, cold store vs pre-populated store, bit-identical runs.
#[test]
fn warm_started_sweep_matches_cold() {
    let (db, dir) = temp_db("sweepwarm");
    let budget = Budget {
        warmup: 500,
        measure: 3_000,
    };
    let plan = Plan::new("warm")
        .config_axes(
            Some(rcmc_core::Topology::Ring),
            None,
            Some(4),
            Some(2),
            Some(1),
            None,
        )
        .benches(["gzip", "swim"])
        .budget(budget);

    let cold = Session::with_store(ResultStore::ephemeral())
        .with_trace_store(db.clone())
        .with_jobs(1)
        .run(&plan)
        .unwrap();
    // Store now holds both traces; a second session decodes instead of
    // emulating (asserted by the cache fallthrough test above — here we
    // assert the *results* cannot tell the difference).
    let warm = Session::with_store(ResultStore::ephemeral())
        .with_trace_store(db.clone())
        .with_jobs(1)
        .run(&plan)
        .unwrap();
    assert_eq!(cold, warm, "warm-start changed simulation results");
    let _ = std::fs::remove_dir_all(&dir);
}
