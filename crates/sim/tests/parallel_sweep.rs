//! Job-engine guarantees, exercised through plans on the public `Session`
//! API: bit-identical results at any worker count, deterministic progress
//! accounting, and concurrent-safe result persistence.

use std::sync::atomic::{AtomicUsize, Ordering};

use rcmc_core::{Steering, Topology};
use rcmc_sim::runner::{store_name, Budget, ResultStore};
use rcmc_sim::{Plan, Session};

fn tiny() -> Budget {
    Budget {
        warmup: 1_000,
        measure: 4_000,
    }
}

/// A plan over `(topology, steering, clusters, iw, buses)` axes entries.
fn grid(axes: &[(Topology, Option<Steering>, usize, usize, usize)], benches: &[&str]) -> Plan {
    let mut plan = Plan::new("grid")
        .benches(benches.iter().copied())
        .budget(tiny());
    for &(t, s, clusters, iw, buses) in axes {
        plan = plan.config_axes(Some(t), s, Some(clusters), Some(iw), Some(buses), None);
    }
    plan
}

fn small_grid() -> Plan {
    grid(
        &[
            (Topology::Ring, None, 4, 2, 1),
            (Topology::Conv, None, 4, 2, 1),
            (Topology::Ring, None, 8, 1, 1),
        ],
        &["swim", "gzip", "mcf", "equake"],
    )
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let plan = small_grid();
    // Ephemeral sessions: every pair is simulated in both runs, so this
    // compares actual parallel execution, not memoized loads.
    let serial = Session::ephemeral().with_jobs(1).run(&plan).unwrap();
    let parallel = Session::ephemeral().with_jobs(8).run(&plan).unwrap();
    assert_eq!(serial.len(), 3 * 4);
    // ResultSet equality compares every (config, bench) key and every
    // RunResult field, f64s included — bit-identical or it fails.
    assert_eq!(serial, parallel);
}

#[test]
fn mesh_and_hier_sweeps_are_bit_identical_at_any_worker_count() {
    // The new fabrics must satisfy the same determinism contract as the
    // paper topologies: jobs=8 reproduces jobs=1 bit-for-bit, including
    // the non-default steering pairings the cross ablation runs.
    let plan = grid(
        &[
            (Topology::Mesh, None, 8, 2, 1),
            (Topology::Hier, None, 8, 2, 1),
            (Topology::Mesh, Some(Steering::RingDep), 8, 2, 1),
            (Topology::Hier, Some(Steering::Ssa), 8, 2, 1),
        ],
        &["swim", "gzip", "mcf"],
    );
    let serial = Session::ephemeral().with_jobs(1).run(&plan).unwrap();
    let parallel = Session::ephemeral().with_jobs(8).run(&plan).unwrap();
    assert_eq!(serial.len(), 4 * 3);
    assert_eq!(serial, parallel);
}

#[test]
fn oversubscribed_and_odd_worker_counts_agree() {
    let plan = grid(&[(Topology::Ring, None, 8, 2, 2)], &["gcc", "ammp"]);
    let baseline = Session::ephemeral().with_jobs(1).run(&plan).unwrap();
    for jobs in [2, 3, 16] {
        let r = Session::ephemeral().with_jobs(jobs).run(&plan).unwrap();
        assert_eq!(baseline, r, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn plan_driven_runs_match_explicit_sweeps() {
    // Presets named in a plan and the same design points spelled out as an
    // explicit axes grid resolve to the same configurations, and run to
    // the same rows at different worker counts.
    let named = Plan::new("grid")
        .config_named("Ring_4clus_1bus_2IW")
        .config_named("Conv_4clus_1bus_2IW")
        .benches(["swim", "gzip"])
        .budget(tiny());
    let via_named = Session::ephemeral().with_jobs(4).run(&named).unwrap();
    let axes = grid(
        &[
            (Topology::Ring, None, 4, 2, 1),
            (Topology::Conv, None, 4, 2, 1),
        ],
        &["swim", "gzip"],
    );
    let via_axes = Session::ephemeral().with_jobs(1).run(&axes).unwrap();
    assert_eq!(via_named, via_axes);
}

#[test]
fn progress_callback_counts_every_executed_job() {
    let seen = std::sync::Mutex::new(Vec::new());
    let on_progress = |p: &rcmc_sim::SweepProgress<'_>| {
        assert_eq!(p.total, 12);
        seen.lock().unwrap().push(p.finished);
    };
    let session = Session::ephemeral().with_jobs(4);
    let results = session.run_streaming(&small_grid(), &on_progress).unwrap();
    assert_eq!(results.len(), 12);
    // One callback per executed job, delivered in strictly increasing
    // `finished` order even with 4 workers racing.
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen, (1..=12).collect::<Vec<_>>());
}

#[test]
fn memoized_pairs_are_not_re_executed_and_not_reported() {
    let dir = std::env::temp_dir().join(format!("rcmc-par-{}", std::process::id()));
    let plan = grid(&[(Topology::Conv, None, 8, 1, 1)], &["twolf", "vpr"]);
    let session = Session::with_store(ResultStore::at(dir.clone())).with_jobs(2);
    let first = session.run(&plan).unwrap();
    // Second run: everything is on disk, so nothing executes — the only
    // callback is the all-memoized terminal event (`total == 0`) and the
    // loaded results match the computed ones exactly.
    let calls = AtomicUsize::new(0);
    let on_progress = |p: &rcmc_sim::SweepProgress<'_>| {
        assert_eq!((p.finished, p.total, p.memoized), (0, 0, 2), "job re-ran");
        calls.fetch_add(1, Ordering::SeqCst);
    };
    let second = session.run_streaming(&plan, &on_progress).unwrap();
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "exactly one terminal event"
    );
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_sessions_share_one_store_safely() {
    // Two threads sweep overlapping grids into the same store directory;
    // atomic renames mean no torn files and both agree on every result.
    let dir = std::env::temp_dir().join(format!("rcmc-race-{}", std::process::id()));
    let session_a = Session::with_store(ResultStore::at(dir.clone())).with_jobs(2);
    let session_b = Session::with_store(ResultStore::at(dir.clone())).with_jobs(2);
    let plan = grid(&[(Topology::Ring, None, 4, 2, 1)], &["crafty", "apsi"]);
    let budget = tiny();
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| session_a.run(&plan).unwrap());
        let hb = s.spawn(|| session_b.run(&plan).unwrap());
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a, b);
    // Every persisted file must parse back to the same result.
    let (cfgs, _) = plan.resolve().unwrap();
    for r in a.rows() {
        let cfg = cfgs.iter().find(|c| c.name == r.config).unwrap();
        assert_eq!(
            session_a
                .store()
                .load(&store_name(cfg), &r.bench, &budget)
                .as_ref(),
            Some(r),
            "torn or stale file"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
