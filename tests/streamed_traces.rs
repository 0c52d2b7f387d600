//! Streamed vs materialized traces. A job's core emulates its program, or
//! decodes its imported trace file, as it fetches and holds only a ring of
//! records ([`Core::streaming`]); the oracles and the pipeline view replay
//! a whole materialized trace ([`Core::new`]). Both must be the same run:
//! bit-identical [`Stats`], skipped cycles and halt flag, event-driven and
//! cycle-stepped alike, on every topology and steering policy — and when
//! the stream ends before the budget, on a program that halts or on a
//! short imported trace.

use ring_clustered::asm::Asm;
use ring_clustered::core::{Core, CoreConfig, Stats, Steering, Topology};
use ring_clustered::emu::{trace_program, TraceDb, TraceSource};
use ring_clustered::isa::{Program, Reg};
use ring_clustered::sim::config::make_pair;
use ring_clustered::sim::runner::{reduce_metrics, run_pair, Budget, ResultStore, Workload};
use ring_clustered::sim::{Plan, Session, SimConfig};
use ring_clustered::workloads::benchmark;

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
