//! Streamed vs materialized traces. A job's core emulates its program, or
//! decodes its imported trace file, as it fetches and holds only a ring of
//! records ([`Core::streaming`]); the oracles and the pipeline view replay
//! a whole materialized trace ([`Core::new`]). Both must be the same run:
//! bit-identical [`Stats`], skipped cycles and halt flag, event-driven and
//! cycle-stepped alike, on every topology and steering policy — and when
//! the stream ends before the budget, on a program that halts or on a
//! short imported trace. The pipeline view of a streamed run is the view
//! of the replay, and an imported trace keeps its INT/FP class.

use ring_clustered::asm::Asm;
use ring_clustered::core::{Core, CoreConfig, PipeTracer, Stats, Steering, Topology};
use ring_clustered::emu::{trace_program, TraceDb, TraceSource};
use ring_clustered::isa::{Program, Reg};
use ring_clustered::sim::config::make_pair;
use ring_clustered::sim::plan::ReportSpec;
use ring_clustered::sim::resultset::Metric;
use ring_clustered::sim::runner::{
    reduce_metrics, run_pair, Budget, ResultStore, RunResult, Workload,
};
use ring_clustered::sim::{Plan, Session, SimConfig};
use ring_clustered::workloads::{benchmark, suite};

const TOPOLOGIES: [Topology; 5] = [
    Topology::Ring,
    Topology::Conv,
    Topology::Crossbar,
    Topology::Mesh,
    Topology::Hier,
];
const STEERINGS: [Steering; 3] = [Steering::RingDep, Steering::ConvDcount, Steering::Ssa];

/// What a run is compared on.
type Run = (Stats, u64, bool);

/// Run `core` over `budget`, and check that its source ended cleanly.
fn finish(mut core: Core<'_>, budget: &Budget, stepped: bool) -> Run {
    core.set_event_driven(!stepped);
    let stats = core.run_with_warmup(budget.warmup, budget.measure);
    let run = (stats, core.skipped_cycles(), core.halted());
    core.into_source()
        .finish()
        .expect("the stream ends cleanly");
    run
}

/// The streamed run of `program` against the replay of its trace
/// materialized at `budget.trace_len()`, both ways of stepping.
fn assert_same_runs(tag: &str, cfg: &SimConfig, program: &Program, budget: &Budget) -> Run {
    let trace = trace_program(program, budget.trace_len() as usize).unwrap();
    let mut last = None;
    for stepped in [false, true] {
        let source = TraceSource::emulate(program);
        let streamed = Core::streaming(cfg.core.clone(), cfg.mem, cfg.pred, source);
        let replayed = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        let (a, b) = (
            finish(streamed, budget, stepped),
            finish(replayed, budget, stepped),
        );
        assert!(a.0.committed > 0, "{tag}: nothing committed");
        assert_eq!(a, b, "{tag} (stepped: {stepped}): streamed run diverged");
        last = Some(a);
    }
    last.unwrap()
}

#[test]
fn streamed_runs_match_materialized_replays() {
    let budget = Budget {
        warmup: 300,
        measure: 1_500,
    };
    for topology in TOPOLOGIES {
        for steering in STEERINGS {
            let mut cfg = make_pair(topology, steering, 8, 2, 1);
            for bench in ["gzip", "swim", "mcf"] {
                let program = benchmark(bench).unwrap().build();
                let tag = format!("{} {steering:?} × {bench}", cfg.name);
                assert_same_runs(&tag, &cfg, &program, &budget);
            }
            // A window whose ring is exactly `rob + fetch_queue +
            // fetch_width` = 32 records wraps every few dozen fetches.
            cfg.core = CoreConfig {
                rob: 16,
                lsq: 16,
                fetch_queue: 8,
                fetch_width: 8,
                ..cfg.core
            };
            let tag = format!("{} {steering:?} small window × vpr", cfg.name);
            assert_same_runs(&tag, &cfg, &benchmark("vpr").unwrap().build(), &budget);
        }
    }
}

/// 100 iterations of a load/add/store loop, then `halt`: about 500
/// instructions.
fn halting_loop() -> Program {
    let mut a = Asm::new();
    let r = Reg::int;
    let buf = a.data_zero(8);
    a.movi_addr(r(2), buf);
    a.movi(r(9), 100);
    let top = a.label_here();
    a.ld(r(1), r(2), 0);
    a.addi(r(1), r(1), 3);
    a.st(r(1), r(2), 0);
    a.addi(r(9), r(9), -1);
    a.bne(r(9), r(0), top);
    a.halt();
    a.assemble().unwrap()
}

#[test]
fn a_program_that_halts_before_its_budget_ends_both_runs_alike() {
    let budget = Budget {
        warmup: 100,
        measure: 5_000,
    };
    let program = halting_loop();
    for topology in TOPOLOGIES {
        let cfg = make_pair(topology, Steering::RingDep, 4, 2, 1);
        let (stats, _, halted) = assert_same_runs(&cfg.name, &cfg, &program, &budget);
        assert!(halted, "{}: the program did not halt", cfg.name);
        assert!(stats.committed < budget.measure, "{}", cfg.name);
    }
}

#[test]
fn a_short_imported_trace_ends_the_run_early() {
    let dir = std::env::temp_dir().join(format!("rcmc-streamed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = TraceDb::at(dir.clone());
    let len = 3_000u64;
    let recorded = trace_program(&benchmark("mcf").unwrap().build(), len as usize).unwrap();
    assert!(db.save("short", len, &recorded));
    let budget = Budget {
        warmup: 500,
        measure: 5_000,
    };
    let short = Workload::resolve("short", Some(&db)).unwrap();
    for topology in TOPOLOGIES {
        let cfg = make_pair(topology, Steering::RingDep, 8, 2, 1);
        let row = run_pair(&cfg, &short, &budget, &ResultStore::ephemeral()).unwrap();
        let trace = short.trace(budget.trace_len()).unwrap();
        assert_eq!(trace, recorded);
        let core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        let (stats, _, halted) = finish(core, &budget, false);
        let replayed = reduce_metrics(&cfg, "short", &stats);
        assert_eq!(format!("{row:?}"), format!("{replayed:?}"), "{}", cfg.name);
        assert!(!halted, "{}", cfg.name);
        assert!(stats.committed < budget.measure, "{}", cfg.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The job path itself: a memo-less [`run_pair`] on a suite benchmark is
/// the replay of its trace materialized at `budget.trace_len()`.
#[test]
fn a_job_matches_the_replay_of_its_materialized_trace() {
    let budget = Budget {
        warmup: 500,
        measure: 2_000,
    };
    for bench in ["gzip", "swim", "mcf"] {
        let cfg = make_pair(Topology::Ring, Steering::RingDep, 8, 2, 1);
        let workload = Workload::resolve(bench, None).unwrap();
        let row = run_pair(&cfg, &workload, &budget, &ResultStore::ephemeral()).unwrap();
        let trace = workload.trace(budget.trace_len()).unwrap();
        let core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        let (stats, _, _) = finish(core, &budget, false);
        let replayed = reduce_metrics(&cfg, bench, &stats);
        assert_eq!(format!("{row:?}"), format!("{replayed:?}"), "{bench}");
    }
}

/// An imported trace streamed from its file is the replay of the same
/// file decoded whole, on every topology, event-driven and stepped, with a
/// window that ends inside the file: the stream stops where the run
/// stops, and its end-of-run check still walks the rest of the file.
#[test]
fn an_imported_stream_matches_the_replay_of_its_decode() {
    let dir = std::env::temp_dir().join(format!("rcmc-streamed-ext-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = TraceDb::at(dir.clone());
    let len = 20_000u64;
    let recorded = trace_program(&benchmark("swim").unwrap().build(), len as usize).unwrap();
    assert!(db.save("ext", len, &recorded));
    let budget = Budget {
        warmup: 500,
        measure: 2_000,
    };
    assert!(budget.trace_len() < len, "the window ends inside the file");
    let ext = Workload::resolve("ext", Some(&db)).unwrap();
    let trace = ext.trace(budget.trace_len()).unwrap();
    assert_eq!(trace, recorded);
    for topology in TOPOLOGIES {
        let cfg = make_pair(topology, Steering::RingDep, 8, 2, 1);
        for stepped in [false, true] {
            let streamed = Core::streaming(cfg.core.clone(), cfg.mem, cfg.pred, ext.source());
            let replayed = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
            let (a, b) = (
                finish(streamed, &budget, stepped),
                finish(replayed, &budget, stepped),
            );
            let tag = format!("{} (stepped: {stepped})", cfg.name);
            // Commit can overshoot each window boundary by up to 7.
            let short = budget.measure.abs_diff(a.0.committed);
            assert!(short < 16, "{tag}: the trace ran out ({short} short)");
            assert!(!a.2, "{tag}");
            assert_eq!(a, b, "{tag}: the streamed run diverged");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two jobs streaming one imported file at once read it at their own
/// offsets: two configurations × one imported trace give the same rows
/// at 2 workers as at 1, bit for bit.
#[test]
fn imported_rows_at_two_workers_match_one_worker() {
    let dir = std::env::temp_dir().join(format!("rcmc-streamed-par-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = TraceDb::at(dir.clone());
    let len = 20_000u64;
    let recorded = trace_program(&benchmark("mcf").unwrap().build(), len as usize).unwrap();
    assert!(db.save("ext", len, &recorded));
    let plan = Plan::new("par")
        .config_named("Ring_8clus_1bus_2IW")
        .config_named("Conv_8clus_1bus_2IW")
        .bench("ext")
        .budget(Budget {
            warmup: 1_000,
            measure: 8_000,
        });
    let run = |jobs| {
        Session::ephemeral()
            .with_trace_store(db.clone())
            .with_jobs(jobs)
            .run(&plan)
            .unwrap()
    };
    let serial = run(1);
    assert_eq!(serial.len(), 2);
    assert_eq!(serial, run(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rcmc trace view`'s timeline comes from the tracer alone: the core
/// hands each record's instruction over at fetch. Over a streamed source
/// it is the timeline of the replay of the materialized trace, byte for
/// byte, on a window inside the run, one that starts at the first record,
/// and one that runs past a program's `halt` (whose unfetched records
/// print no row).
#[test]
fn the_pipeline_view_of_a_stream_matches_the_replay() {
    let gzip = benchmark("gzip").unwrap().build();
    let cases: [(&str, &Program, u32, u32); 3] = [
        ("gzip", &gzip, 1_000, 1_024),
        ("gzip from 0", &gzip, 0, 40),
        ("past halt", &halting_loop(), 480, 560),
    ];
    for (what, program, from, to) in cases {
        let trace = trace_program(program, to as usize + 50_000).unwrap();
        for topology in [Topology::Ring, Topology::Conv] {
            let cfg = make_pair(topology, Steering::RingDep, 8, 1, 2);
            let view = |mut core: Core<'_>| {
                core.attach_tracer(PipeTracer::new(from, to));
                core.run(to as u64 + 20_000);
                let tracer = core.take_tracer().unwrap();
                core.into_source()
                    .finish()
                    .expect("the stream ends cleanly");
                (tracer.render(100), tracer.latency_summary())
            };
            let source = TraceSource::emulate(program);
            let streamed = view(Core::streaming(cfg.core.clone(), cfg.mem, cfg.pred, source));
            let replayed = view(Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace));
            let tag = format!("{what} on {}", cfg.name);
            let rows = streamed.0.lines().count() - 1;
            let fetched = (to.min(trace.len() as u32) - from) as usize;
            assert_eq!(rows, fetched, "{tag}: one row per fetched record");
            assert_eq!(streamed, replayed, "{tag}: the streamed view diverged");
        }
    }
}

/// An imported trace keeps its INT/FP class: each of the 26 suite
/// benchmarks, recorded at a short length and imported under another
/// name, gets the class of its suite program, and an imported FP trace's
/// row lands in the FP column of a `grouped` report (an INT one in the
/// INT column). A file from before the class flag reads INT until it is
/// re-imported, and then even its memoized row reads FP.
#[test]
fn imported_traces_keep_their_suite_class() {
    let dir = std::env::temp_dir().join(format!("rcmc-streamed-class-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (rec, db) = (TraceDb::at(dir.join("rec")), TraceDb::at(dir.join("store")));
    for b in suite() {
        let recorded = rec.record(b.name, 2_000, &b.build()).unwrap();
        assert_eq!(recorded.fp, b.is_fp(), "{}: recorded class", b.name);
        let file = std::fs::File::open(rec.dir().join(format!("{}.trc", b.name))).unwrap();
        let imported = db.import(&file, Some(&format!("x-{}", b.name)), |_| false);
        assert_eq!(
            imported.unwrap().fp,
            b.is_fp(),
            "{}: imported class",
            b.name
        );
        let workload = Workload::resolve(&format!("x-{}", b.name), Some(&db)).unwrap();
        assert_eq!(workload.fp(), b.is_fp(), "{}: workload class", b.name);
    }
    let plan = |bench: &str| {
        Plan::new("class")
            .config_named("Ring_8clus_1bus_2IW")
            .bench(bench)
            .budget(Budget {
                warmup: 200,
                measure: 1_000,
            })
            .report(ReportSpec::grouped(Metric::Ipc))
    };
    let session = Session::ephemeral().with_trace_store(db.clone());
    for (bench, fp) in [("x-swim", true), ("x-gzip", false)] {
        let rs = session.run(&plan(bench)).unwrap();
        let row = &rs.rows()[0];
        assert_eq!((row.bench.as_str(), row.fp), (bench, fp));
        let text = plan(bench).render_text(&rs).unwrap();
        // `Ring_8clus_1bus_2IW  AVERAGE  INT  FP`: the row's IPC is the
        // average and its own class's mean; the other class, with no
        // row, reads 0.
        let line = text
            .lines()
            .find(|l| l.starts_with("Ring_8clus_1bus_2IW"))
            .unwrap_or_else(|| panic!("{bench}: no report line in\n{text}"));
        let cells: Vec<&str> = line.split_whitespace().collect();
        let ipc = format!("{:.3}", row.ipc);
        let none = "0.000";
        let (int, fp_cell) = if fp {
            (none, ipc.as_str())
        } else {
            (ipc.as_str(), none)
        };
        assert_eq!(
            cells,
            ["Ring_8clus_1bus_2IW", &ipc, int, fp_cell],
            "{bench}:\n{text}"
        );
    }

    // A file written before the class flag existed (byte 45 zero) reads
    // INT, and so does the row memoized for it. Re-importing the file
    // sets the flag without changing its checksum, so the next run is a
    // memo hit on that row, delivered under the workload's class: FP.
    let path = db.dir().join("x-swim.trc");
    let mut old = std::fs::read(&path).unwrap();
    old[45] = 0;
    std::fs::write(&path, &old).unwrap();
    let results = dir.join("results");
    let run = || {
        let executed = std::sync::Mutex::new(0);
        let rs = Session::with_store(ResultStore::at(results.clone()))
            .with_trace_store(db.clone())
            .run_streaming(&plan("x-swim"), &|p| {
                *executed.lock().unwrap() = p.total - p.coalesced
            })
            .unwrap();
        (rs.rows()[0].clone(), executed.into_inner().unwrap())
    };
    let (before, executed) = run();
    assert_eq!(
        (before.fp, executed),
        (false, 1),
        "a pre-flag file reads INT"
    );
    let file = std::fs::File::open(&path).unwrap();
    assert!(db.import(&file, None, |_| false).unwrap().fp);
    let (after, executed) = run();
    assert_eq!(
        (after.fp, executed),
        (true, 0),
        "the memoized row, relabelled"
    );
    assert_eq!(after, RunResult { fp: true, ..before });
    let _ = std::fs::remove_dir_all(&dir);
}
