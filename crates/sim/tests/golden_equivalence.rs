//! Golden equivalence: the interconnect and steering refactors must be
//! invisible in the numbers.
//!
//! The Ring/Conv/SSA counters below were captured from the pre-refactor
//! seed model (MODEL_VERSION 5, the bus fabric hard-wired into the pipeline,
//! heap-allocated steering); the Xbar rows were captured immediately before
//! steering moved out of the pipeline (same MODEL_VERSION, `Steerer`+`Dcount`
//! still living in it), with the DCOUNT threshold pinned at the
//! pre-recalibration 16.0 so the deliberate Crossbar recalibration cannot
//! mask a steering regression. Every configuration going through the one
//! pure `steering::steer` function (once a steering trait object per
//! core, each algorithm keeping its own tie-break pointer) and the one
//! link-reservation `Fabric` (once an `Interconnect` trait with one
//! implementation per topology) — with DCOUNT read from the issue queues'
//! occupancy (it once kept its own counters, fed by dispatch/issue
//! feedback hooks) and wakeup running off per-value waiter bitsets of
//! slot-stable issue queues — must reproduce every counter
//! bit-for-bit: cycles, commit mix, communication counts/distances/waits,
//! NREADY and the per-cluster dispatch histogram. If any row moves, the
//! timing model changed and MODEL_VERSION in `rcmc_sim::runner` must be
//! bumped (and these pins re-captured).
//!
//! The Mesh/Hier/long-hop rows were captured immediately before the
//! event-driven run loop landed (same MODEL_VERSION, cycle-stepped `run`),
//! so all five topologies now pin the wheel: fast-forwarding over dead
//! cycles must be invisible in every counter. The property test at the
//! bottom additionally diffs event-driven against forced cycle-stepped runs
//! (`set_event_driven(false)`) across randomized small configurations.
//!
//! The `~on_read` and `~iq100` rows were captured immediately before the
//! issue queues moved onto bitsets and reader counts became flat (same
//! MODEL_VERSION): they pin `OnLastRead` copy release, which acts on the
//! reader counts, and issue queues wider than one 64-slot bitset word.

use rcmc_core::{CopyRelease, Core, Steering, Topology};
use rcmc_sim::config::{make, make_pair, SimConfig};
use rcmc_sim::runner::{cached_trace, Budget};

fn budget() -> Budget {
    Budget {
        warmup: 1_000,
        measure: 4_000,
    }
}

struct Golden {
    cfg: SimConfig,
    bench: &'static str,
    cycles: u64,
    committed: u64,
    comms_created: u64,
    comms_issued: u64,
    comm_distance: u64,
    comm_bus_wait: u64,
    nready: u64,
    issued_int: u64,
    dispatched: &'static [u64],
}

fn goldens() -> Vec<Golden> {
    let ssa = |mut c: SimConfig| {
        c.core.steering = Steering::Ssa;
        c.name = format!("{}+SSA", c.name);
        c
    };
    // The Xbar pins predate the Crossbar DCOUNT recalibration: run them at
    // the threshold they were captured with.
    let thr16 = |mut c: SimConfig| {
        c.core.dcount_threshold = 16.0;
        c
    };
    // Stall-heavy long-hop variant (where the event wheel matters most).
    let hop4 = |mut c: SimConfig| {
        c.core.hop_latency = 4;
        c.name = format!("{}~hop4", c.name);
        c
    };
    // Early copy release: every operand read counts down a reader count
    // that decides when a non-home copy is freed.
    let on_read = |mut c: SimConfig| {
        c.core.copy_release = CopyRelease::OnLastRead;
        c.name = format!("{}~on_read", c.name);
        c
    };
    // Issue queues wider than one 64-entry bitset word.
    let iq100 = |mut c: SimConfig| {
        c.core.iq_int = 100;
        c.core.iq_fp = 100;
        c.name = format!("{}~iq100", c.name);
        c
    };
    vec![
        Golden {
            cfg: make(Topology::Ring, 8, 2, 1),
            bench: "swim",
            cycles: 9174,
            committed: 4000,
            comms_created: 19,
            comms_issued: 19,
            comm_distance: 41,
            comm_bus_wait: 15,
            nready: 304,
            issued_int: 2763,
            dispatched: &[491, 491, 497, 499, 501, 501, 500, 496],
        },
        Golden {
            cfg: make(Topology::Ring, 8, 2, 1),
            bench: "gzip",
            cycles: 9932,
            committed: 4003,
            comms_created: 577,
            comms_issued: 575,
            comm_distance: 813,
            comm_bus_wait: 148,
            nready: 42,
            issued_int: 4057,
            dispatched: &[457, 567, 468, 554, 455, 551, 478, 528],
        },
        Golden {
            cfg: make(Topology::Conv, 8, 2, 2),
            bench: "mcf",
            cycles: 82770,
            committed: 4000,
            comms_created: 0,
            comms_issued: 0,
            comm_distance: 0,
            comm_bus_wait: 0,
            nready: 800,
            issued_int: 4000,
            dispatched: &[2400, 0, 1600, 0, 0, 0, 0, 0],
        },
        Golden {
            cfg: make(Topology::Conv, 4, 2, 1),
            bench: "galgel",
            cycles: 1309,
            committed: 4000,
            comms_created: 1242,
            comms_issued: 1229,
            comm_distance: 2493,
            comm_bus_wait: 2749,
            nready: 247,
            issued_int: 2649,
            dispatched: &[383, 1322, 624, 1729],
        },
        Golden {
            cfg: thr16(make(Topology::Crossbar, 8, 2, 1)),
            bench: "gzip",
            cycles: 12234,
            committed: 4004,
            comms_created: 87,
            comms_issued: 87,
            comm_distance: 87,
            comm_bus_wait: 86,
            nready: 885,
            issued_int: 4056,
            dispatched: &[916, 230, 22, 2890, 0, 0, 0, 0],
        },
        Golden {
            cfg: thr16(make(Topology::Crossbar, 8, 2, 2)),
            bench: "ammp",
            cycles: 929,
            committed: 3996,
            comms_created: 1035,
            comms_issued: 1023,
            comm_distance: 1023,
            comm_bus_wait: 49,
            nready: 1086,
            issued_int: 1494,
            dispatched: &[524, 558, 560, 528, 495, 355, 349, 553],
        },
        Golden {
            cfg: ssa(make(Topology::Ring, 8, 1, 2)),
            bench: "crafty",
            cycles: 9005,
            committed: 4000,
            comms_created: 735,
            comms_issued: 735,
            comm_distance: 2876,
            comm_bus_wait: 100,
            nready: 907,
            issued_int: 4000,
            dispatched: &[523, 506, 518, 510, 500, 476, 492, 476],
        },
        // --- pre-event-driven pins: Mesh, Hier, and a long-hop Conv ---
        Golden {
            cfg: make(Topology::Mesh, 8, 2, 1),
            bench: "gzip",
            cycles: 10958,
            committed: 4004,
            comms_created: 780,
            comms_issued: 780,
            comm_distance: 1367,
            comm_bus_wait: 256,
            nready: 736,
            issued_int: 4057,
            dispatched: &[851, 968, 493, 558, 376, 296, 374, 142],
        },
        Golden {
            cfg: make(Topology::Hier, 8, 2, 1),
            bench: "swim",
            cycles: 9688,
            committed: 4000,
            comms_created: 742,
            comms_issued: 690,
            comm_distance: 1899,
            comm_bus_wait: 488,
            nready: 535,
            issued_int: 2878,
            dispatched: &[2276, 341, 273, 187, 186, 121, 273, 507],
        },
        Golden {
            cfg: hop4(make(Topology::Conv, 8, 2, 1)),
            bench: "gzip",
            cycles: 12235,
            committed: 4004,
            comms_created: 186,
            comms_issued: 186,
            comm_distance: 557,
            comm_bus_wait: 156,
            nready: 890,
            issued_int: 4056,
            dispatched: &[699, 2898, 249, 212, 0, 0, 0, 0],
        },
        // --- pre-bitset-issue-window pins: `OnLastRead` copy release, and
        // the same with 100-entry issue queues ---
        Golden {
            cfg: on_read(make(Topology::Ring, 8, 2, 1)),
            bench: "swim",
            cycles: 9158,
            committed: 4000,
            comms_created: 286,
            comms_issued: 285,
            comm_distance: 609,
            comm_bus_wait: 170,
            nready: 308,
            issued_int: 2775,
            dispatched: &[464, 609, 497, 504, 507, 488, 467, 464],
        },
        Golden {
            cfg: on_read(make(Topology::Ring, 8, 2, 1)),
            bench: "mcf",
            cycles: 82770,
            committed: 4000,
            comms_created: 0,
            comms_issued: 0,
            comm_distance: 0,
            comm_bus_wait: 0,
            nready: 800,
            issued_int: 4000,
            dispatched: &[500, 500, 500, 500, 500, 500, 500, 500],
        },
        Golden {
            cfg: on_read(make(Topology::Conv, 8, 2, 1)),
            bench: "swim",
            cycles: 10051,
            committed: 4000,
            comms_created: 1061,
            comms_issued: 1035,
            comm_distance: 3634,
            comm_bus_wait: 797,
            nready: 457,
            issued_int: 2834,
            dispatched: &[1974, 162, 335, 573, 370, 303, 215, 154],
        },
        Golden {
            cfg: on_read(make(Topology::Conv, 8, 2, 1)),
            bench: "mcf",
            cycles: 82770,
            committed: 4000,
            comms_created: 0,
            comms_issued: 0,
            comm_distance: 0,
            comm_bus_wait: 0,
            nready: 800,
            issued_int: 4000,
            dispatched: &[2400, 0, 1600, 0, 0, 0, 0, 0],
        },
        Golden {
            cfg: iq100(on_read(make(Topology::Ring, 8, 2, 1))),
            bench: "swim",
            cycles: 9158,
            committed: 4000,
            comms_created: 286,
            comms_issued: 285,
            comm_distance: 609,
            comm_bus_wait: 170,
            nready: 308,
            issued_int: 2775,
            dispatched: &[464, 609, 497, 504, 507, 488, 467, 464],
        },
        Golden {
            cfg: iq100(on_read(make(Topology::Ring, 8, 2, 1))),
            bench: "mcf",
            cycles: 82770,
            committed: 4000,
            comms_created: 0,
            comms_issued: 0,
            comm_distance: 0,
            comm_bus_wait: 0,
            nready: 800,
            issued_int: 4000,
            dispatched: &[500, 500, 500, 500, 500, 500, 500, 500],
        },
        Golden {
            cfg: iq100(on_read(make(Topology::Conv, 8, 2, 1))),
            bench: "swim",
            cycles: 9531,
            committed: 4000,
            comms_created: 803,
            comms_issued: 790,
            comm_distance: 2817,
            comm_bus_wait: 739,
            nready: 301,
            issued_int: 2689,
            dispatched: &[1934, 523, 221, 364, 209, 168, 203, 235],
        },
        Golden {
            cfg: iq100(on_read(make(Topology::Conv, 8, 2, 1))),
            bench: "mcf",
            cycles: 83370,
            committed: 4000,
            comms_created: 693,
            comms_issued: 682,
            comm_distance: 2552,
            comm_bus_wait: 197,
            nready: 566,
            issued_int: 3995,
            dispatched: &[425, 549, 451, 444, 524, 569, 481, 545],
        },
    ]
}

#[test]
fn ring_and_conv_match_pre_refactor_seed_bit_for_bit() {
    let budget = budget();
    for g in goldens() {
        let trace = cached_trace(g.bench, budget.trace_len());
        let mut core = Core::new(g.cfg.core.clone(), g.cfg.mem, g.cfg.pred, &trace);
        let s = core.run_with_warmup(budget.warmup, budget.measure);
        let tag = format!("{} × {}", g.cfg.name, g.bench);
        assert_eq!(s.cycles, g.cycles, "{tag}: cycles");
        assert_eq!(s.committed, g.committed, "{tag}: committed");
        assert_eq!(s.comms_created, g.comms_created, "{tag}: comms_created");
        assert_eq!(s.comms_issued, g.comms_issued, "{tag}: comms_issued");
        assert_eq!(s.comm_distance, g.comm_distance, "{tag}: comm_distance");
        assert_eq!(s.comm_bus_wait, g.comm_bus_wait, "{tag}: comm_bus_wait");
        assert_eq!(s.nready, g.nready, "{tag}: nready");
        assert_eq!(s.issued_int, g.issued_int, "{tag}: issued_int");
        assert_eq!(
            &s.dispatched_per_cluster[..g.cfg.core.n_clusters],
            g.dispatched,
            "{tag}: dispatch histogram"
        );
    }
}

/// The crossbar is selectable end-to-end and behaves like a one-hop
/// interconnect: it commits the exact oracle stream and every issued
/// communication travels exactly one hop.
#[test]
fn crossbar_runs_end_to_end_with_one_hop_comms() {
    let budget = budget();
    let cfg = make(Topology::Crossbar, 8, 2, 1);
    assert_eq!(cfg.name, "Xbar_8clus_1bus_2IW");
    let trace = cached_trace("gzip", budget.trace_len());
    let mut core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
    let s = core.run_with_warmup(budget.warmup, budget.measure);
    assert!(s.committed >= budget.measure, "crossbar run must complete");
    assert!(s.comms_issued > 0, "DCOUNT steering must communicate");
    assert_eq!(
        s.comm_distance, s.comms_issued,
        "every crossbar hop has distance exactly 1"
    );
    // A one-hop network with the same port count can only help: it needs no
    // more cycles than the segmented conventional bus.
    let conv = make(Topology::Conv, 8, 2, 1);
    let mut core = Core::new(conv.core.clone(), conv.mem, conv.pred, &trace);
    let sc = core.run_with_warmup(budget.warmup, budget.measure);
    assert!(
        s.cycles <= sc.cycles,
        "crossbar ({}) slower than conventional bus ({})",
        s.cycles,
        sc.cycles
    );
}

/// The mesh is selectable end-to-end and behaves like a Manhattan-routed
/// fabric: the oracle stream commits and every issued communication travels
/// between 1 hop and the grid diameter.
#[test]
fn mesh_runs_end_to_end_with_manhattan_comms() {
    let budget = budget();
    let cfg = make(Topology::Mesh, 8, 2, 1);
    assert_eq!(cfg.name, "Mesh_8clus_1bus_2IW");
    let trace = cached_trace("gzip", budget.trace_len());
    let mut core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
    let s = core.run_with_warmup(budget.warmup, budget.measure);
    assert!(s.committed >= budget.measure, "mesh run must complete");
    assert!(s.comms_issued > 0, "DCOUNT steering must communicate");
    // 8 clusters -> 4×2 grid, diameter 4.
    assert!(s.comm_distance >= s.comms_issued);
    assert!(s.comm_distance <= 4 * s.comms_issued);
}

/// The hierarchy is selectable end-to-end: the oracle stream commits and
/// every issued communication is either one intra-group hop or one
/// HIER_INTER_HOPS inter-group traversal.
#[test]
fn hier_runs_end_to_end_with_two_level_comms() {
    let budget = budget();
    let cfg = make(Topology::Hier, 8, 2, 1);
    assert_eq!(cfg.name, "Hier_8clus_1bus_2IW");
    let trace = cached_trace("gzip", budget.trace_len());
    let mut core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
    let s = core.run_with_warmup(budget.warmup, budget.measure);
    assert!(s.committed >= budget.measure, "hier run must complete");
    assert!(s.comms_issued > 0, "DCOUNT steering must communicate");
    let inter = rcmc_core::fabric::HIER_INTER_HOPS as u64;
    assert!(s.comm_distance >= s.comms_issued);
    assert!(s.comm_distance <= inter * s.comms_issued);
    // The aggregate must decompose into 1-hop and HIER_INTER_HOPS-hop
    // messages exactly: distance = comms + (inter - 1) * n_inter for some
    // integral 0 <= n_inter <= comms.
    let excess = s.comm_distance - s.comms_issued;
    assert_eq!(
        excess % (inter - 1),
        0,
        "distances other than 1/{inter} seen"
    );
    assert!(excess / (inter - 1) <= s.comms_issued);
}

/// Crossbar runs are deterministic and reachable through the public
/// memoized runner path (what `rcmc run --topology crossbar` uses).
#[test]
fn crossbar_through_runner_is_deterministic() {
    let budget = budget();
    let cfg = make(Topology::Crossbar, 8, 2, 2);
    let store = rcmc_sim::runner::ResultStore::ephemeral();
    let equake = rcmc_sim::runner::Workload::resolve("equake", None).unwrap();
    let a = rcmc_sim::runner::run_pair(&cfg, &equake, &budget, &store).unwrap();
    let b = rcmc_sim::runner::run_pair(&cfg, &equake, &budget, &store).unwrap();
    assert_eq!(a, b);
    assert!(a.ipc > 0.0);
    assert!(
        a.dist_per_comm <= 1.0,
        "crossbar mean distance must be ≤ 1 hop, got {}",
        a.dist_per_comm
    );
}

/// Property test: fast-forwarding over dead cycles is a pure scheduling
/// optimization. On randomized small configurations — every topology,
/// every steering policy, mixed cluster counts / widths / hop latencies —
/// a default (event-driven) run and a forced cycle-by-cycle run
/// ([`Core::set_event_driven`]) must produce bit-identical statistics.
#[test]
fn event_driven_matches_cycle_stepped_on_random_configs() {
    // xorshift64: deterministic, dependency-free. Reseeding changes which
    // configurations are drawn, never whether the property should hold.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let topologies = [
        Topology::Ring,
        Topology::Conv,
        Topology::Crossbar,
        Topology::Mesh,
        Topology::Hier,
    ];
    let steerings = [Steering::RingDep, Steering::ConvDcount, Steering::Ssa];
    let benches = ["gzip", "swim", "crafty"];
    let budget = Budget {
        warmup: 200,
        measure: 800,
    };
    let mut total_skipped = 0u64;
    for _ in 0..16 {
        let topology = topologies[(rng() % topologies.len() as u64) as usize];
        let steering = steerings[(rng() % steerings.len() as u64) as usize];
        let n_clusters = [2, 4, 8][(rng() % 3) as usize];
        let iw = 1 + (rng() % 2) as usize;
        let n_buses = 1 + (rng() % 2) as usize;
        let mut cfg = make_pair(topology, steering, n_clusters, iw, n_buses);
        cfg.core.hop_latency = 1 + (rng() % 4) as u32;
        let bench = benches[(rng() % benches.len() as u64) as usize];
        let tag = format!("{}~hop{} × {}", cfg.name, cfg.core.hop_latency, bench);

        let trace = cached_trace(bench, budget.trace_len());
        let mut fast = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        let fast_stats = fast.run_with_warmup(budget.warmup, budget.measure);

        let mut stepped = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        stepped.set_event_driven(false);
        let stepped_stats = stepped.run_with_warmup(budget.warmup, budget.measure);

        assert_eq!(
            stepped.skipped_cycles(),
            0,
            "{tag}: the escape hatch must never fast-forward"
        );
        assert_eq!(
            fast_stats, stepped_stats,
            "{tag}: event-driven run diverged from cycle-stepped run"
        );
        total_skipped += fast.skipped_cycles();
    }
    // Sanity that the property is not vacuous: across 16 randomized runs
    // the wheel must actually have skipped something.
    assert!(
        total_skipped > 0,
        "event-driven mode never fast-forwarded; the property test is vacuous"
    );
}
