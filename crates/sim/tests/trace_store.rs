//! Trace-store round trips at suite scale, where a run's trace comes
//! from, and imported traces as plan-resolvable workloads.
//!
//! The load-bearing guarantee: a trace pulled back out of the on-disk
//! store is **bit-identical** — dynamic instruction stream and whole-run
//! facts — to what the emulator produces fresh, for every benchmark in
//! the suite; and a suite benchmark's run never reads the store, so a
//! file stored under its name cannot stand in for it.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rcmc_emu::{trace_program, TraceDb, TraceDbError, TraceMeta};
use rcmc_sim::plan::Plan;
use rcmc_sim::runner::{all_bench_names, cached_trace_via, Budget, ResultStore, RunResult};
use rcmc_sim::scheduler::{JobFailure, RunRequest, Scheduler, Sink, Tally};
use rcmc_sim::{ResultSet, Session, SweepProgress};
use rcmc_workloads::benchmark;
use serde::json::Value;

fn temp_db(tag: &str) -> (TraceDb, PathBuf) {
    let dir = std::env::temp_dir().join(format!("rcmc-tstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (TraceDb::at(dir.clone()), dir)
}

/// Import the trace file at `path` into `db` as `name`.
fn import_as(db: &TraceDb, path: &Path, name: &str) -> Result<TraceMeta, TraceDbError> {
    db.import(&File::open(path).unwrap(), Some(name), |_| false)
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
        assert_eq!(
            stored, fresh,
            "{name}: logical stream or whole-run facts differ"
        );
    }
    assert_eq!(db.list().len(), all_bench_names().len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A suite name always emulates: a store holding mcf's trace filed as
/// `gzip.trc` (what importing mcf under the name gzip once wrote)
/// leaves the gzip run's trace equal to a fresh gzip emulation.
#[test]
fn a_stored_trace_under_a_suite_name_is_never_read() {
    let (db, dir) = temp_db("shadow");
    let len = 7_000u64;
    let emulate = |name| trace_program(&benchmark(name).unwrap().build(), len as usize).unwrap();
    assert!(db.save("gzip", len, &emulate("mcf")));
    let got = cached_trace_via("gzip", len, Some(&db));
    assert_eq!(*got, emulate("gzip"), "gzip ran on the stored file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An imported trace is a first-class workload: plans resolve it, a
/// session with that store simulates it, and its one stored file serves
/// any requested budget.
#[test]
fn imported_trace_is_a_plan_resolvable_workload() {
    let (db, dir) = temp_db("imported");
    let len = 6_000u64;
    let t = trace_program(&benchmark("mcf").unwrap().build(), len as usize).unwrap();
    // "Capture" externally: encode under a foreign name via a second
    // store, then import the raw file under a new name.
    let (side, side_dir) = temp_db("imported-side");
    assert!(side.save("captured", len, &t));
    let meta = import_as(&db, &side_dir.join("captured.trc"), "myext").expect("import validates");
    assert_eq!((meta.name.as_str(), meta.len), ("myext", len));
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

    // The one stored file serves shorter/longer budgets too.
    let longest = cached_trace_via("myext", 50_000, Some(&db));
    assert_eq!(longest.len(), t.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store that already holds the suite traces must not change results:
/// same grid, no store vs a pre-populated store, bit-identical runs.
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
        .without_trace_store()
        .with_jobs(1)
        .run(&plan)
        .unwrap();
    let len = budget.trace_len();
    for name in ["gzip", "swim"] {
        let t = trace_program(&benchmark(name).unwrap().build(), len as usize).unwrap();
        assert!(db.save(name, len, &t));
    }
    let warm = Session::with_store(ResultStore::ephemeral())
        .with_trace_store(db.clone())
        .with_jobs(1)
        .run(&plan)
        .unwrap();
    assert_eq!(
        cold, warm,
        "a populated trace store changed simulation results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memoized row belongs to the trace it simulated, not to the name the
/// trace was imported under: re-importing a different recording as `X`
/// makes the next run of the same plan on the same result store execute,
/// and its row equals a fresh store's.
#[test]
fn reimporting_a_name_never_serves_the_old_traces_row() {
    let (db, dir) = temp_db("reimport");
    let (side, side_dir) = temp_db("reimport-side");
    let len = 12_000u64;
    let import_as_x = |bench: &str| {
        let t = trace_program(&benchmark(bench).unwrap().build(), len as usize).unwrap();
        assert!(side.save(bench, len, &t));
        import_as(&db, &side_dir.join(format!("{bench}.trc")), "X").expect("import validates");
    };
    let plan = Plan::new("stale")
        .config_named("Ring_8clus_1bus_2IW")
        .bench("X")
        .budget(Budget {
            warmup: 1_000,
            measure: 10_000,
        });
    let store_dir = dir.join("results");
    let run = |store: ResultStore| {
        let executed = std::sync::Mutex::new((0, 0));
        let session = Session::with_store(store)
            .with_trace_store(db.clone())
            .with_jobs(1);
        let rs = session
            .run_streaming(&plan, &|p| {
                *executed.lock().unwrap() = (p.finished, p.memoized)
            })
            .unwrap();
        (rs.rows()[0].clone(), executed.into_inner().unwrap())
    };

    import_as_x("gzip");
    let (gzip_row, tally) = run(ResultStore::at(store_dir.clone()));
    assert_eq!(tally, (1, 0), "cold run executes");
    import_as_x("swim");
    let (again, tally) = run(ResultStore::at(store_dir.clone()));
    assert_eq!(tally, (1, 0), "a re-imported X must execute, not memoize");
    let (fresh, _) = run(ResultStore::ephemeral());
    assert_eq!(again, fresh, "the row must be swim's, as on a fresh store");
    assert_ne!(again, gzip_row);
    let _ = std::fs::remove_dir_all(&side_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keeps a request's result set and tally.
struct Keep<'a>(&'a Mutex<Option<(ResultSet, Tally)>>);

impl Sink for Keep<'_> {
    fn progress(&self, _: &SweepProgress<'_>) -> bool {
        true
    }

    fn done(&self, rs: ResultSet, tally: Tally) -> bool {
        *self.0.lock().unwrap() = Some((rs, tally));
        true
    }

    fn cancelled(&self, _: Option<&JobFailure>) -> bool {
        true
    }
}

/// A request runs the trace it resolved. A 1×1 request over the imported
/// `ext` (gzip's recording) is submitted; then `ext` changes before any
/// worker starts the job. Inputs: `ext` removed, and swim's recording
/// re-imported as `ext`. Either way the job delivers the row gzip-as-`ext`
/// gives on a fresh store, filed under gzip's checksum (with gzip's
/// recording back as `ext`, the next run memoizes it), and the next
/// request resolves what the store holds by then.
#[test]
fn a_request_runs_the_trace_it_resolved() {
    let (side, side_dir) = temp_db("pin-side");
    let len = 12_000u64;
    let recording = |bench: &str| {
        let t = trace_program(&benchmark(bench).unwrap().build(), len as usize).unwrap();
        assert!(side.save(bench, len, &t));
        side_dir.join(format!("{bench}.trc"))
    };
    let (gzip, swim) = (recording("gzip"), recording("swim"));
    let budget = Budget {
        warmup: 1_000,
        measure: 10_000,
    };
    let plan = Plan::new("pin")
        .config_named("Ring_8clus_1bus_2IW")
        .bench("ext")
        .budget(budget);
    // The row, and (executed, memoized), of a session run of `plan`.
    let run = |store: ResultStore, db: &TraceDb| {
        let counts = Mutex::new((0, 0));
        let rs = Session::with_store(store)
            .with_trace_store(db.clone())
            .with_jobs(1)
            .run_streaming(&plan, &|p| {
                *counts.lock().unwrap() = (p.total - p.coalesced, p.memoized)
            })
            .unwrap();
        (rs.rows()[0].clone(), counts.into_inner().unwrap())
    };
    // What `ext` gives as the only trace of a fresh store.
    let fresh_row = |path: &Path| {
        let (db, dir) = temp_db("pin-fresh");
        import_as(&db, path, "ext").unwrap();
        let (row, _) = run(ResultStore::ephemeral(), &db);
        let _ = std::fs::remove_dir_all(&dir);
        row
    };
    let (gzip_row, swim_row) = (fresh_row(&gzip), fresh_row(&swim));
    assert_ne!(gzip_row, swim_row);

    // Each input: how `ext` changes after submission, and the row the
    // next request runs (`None`: `ext` no longer resolves).
    type Change<'a> = Box<dyn Fn(&TraceDb) + 'a>;
    let inputs: Vec<(&str, Change, Option<&RunResult>)> = vec![
        ("removed", Box::new(|db| assert!(db.remove("ext"))), None),
        (
            "re-imported as swim",
            Box::new(|db| {
                import_as(db, &swim, "ext").unwrap();
            }),
            Some(&swim_row),
        ),
    ];
    for (what, change, next) in inputs {
        let (db, dir) = temp_db("pin");
        import_as(&db, &gzip, "ext").unwrap();
        let results = dir.join("results");
        let store = ResultStore::at(results.clone());
        let (cfgs, workloads) = plan.resolve_workloads_in(Some(&db)).unwrap();
        let got = Mutex::new(None);
        let sched = Scheduler::new(usize::MAX);
        sched.submit(
            RunRequest {
                id: Value::Null,
                label: what.to_string(),
                cfgs,
                workloads,
                budget,
                sink: Box::new(Keep(&got)),
            },
            &store,
        );
        change(&db);
        sched.close();
        sched.worker(&store);
        drop(sched);
        let (rs, tally) = got.into_inner().unwrap().expect("the request completes");
        assert_eq!(
            rs.rows(),
            std::slice::from_ref(&gzip_row),
            "{what}: the job ran another trace"
        );
        assert_eq!(tally.executed, 1, "{what}");

        // The next request resolves the store as it is now.
        match next {
            None => assert!(plan.resolve_in(Some(&db)).is_err(), "{what}"),
            Some(want) => {
                let (row, counts) = run(ResultStore::at(results.clone()), &db);
                assert_eq!((&row, counts), (want, (1, 0)), "{what}");
            }
        }
        // Filed under gzip's checksum, not under the name.
        import_as(&db, &gzip, "ext").unwrap();
        let (row, counts) = run(ResultStore::at(results), &db);
        assert_eq!((row, counts), (gzip_row.clone(), (0, 1)), "{what}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&side_dir);
}
