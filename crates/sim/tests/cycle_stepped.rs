//! Event-driven vs cycle-stepped equivalence: the fast-forward wheel
//! (PR 6) is a pure scheduling optimization. On randomized configurations
//! — every topology, every steering policy, cluster counts up to the
//! `MAX_CLUSTERS = 64` ceiling — a default (event-driven) run and a forced
//! cycle-stepped run ([`Core::set_event_driven`]) must produce
//! bit-identical statistics.
//!
//! The dense-scan escape hatch this suite once cross-checked
//! (`set_sparse(false)`) is gone — the sparse active-cluster walks are the
//! only issue/NREADY/idle-probe implementation now, so every run here
//! exercises them on both sides of the comparison. The cycle-stepped loop
//! remains the slowest, most literal interpretation of the model and the
//! anchor this property test pins the production path to.
//!
//! The first ten iterations pin all five topologies at 64 and 32 clusters
//! (the scales the sparse masks exist for); the rest draw freely.

use rcmc_core::{Core, Steering, Topology};
use rcmc_sim::config::make_pair;
use rcmc_sim::runner::{cached_trace, Budget};

#[test]
fn event_driven_matches_cycle_stepped_on_random_configs() {
    // xorshift64: deterministic, dependency-free. Reseeding changes which
    // configurations are drawn, never whether the property should hold.
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
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
    for i in 0..20usize {
        let (topology, n_clusters) = if i < 5 {
            (topologies[i], 64)
        } else if i < 10 {
            (topologies[i - 5], 32)
        } else {
            (
                topologies[(rng() % topologies.len() as u64) as usize],
                [4, 8, 16, 32][(rng() % 4) as usize],
            )
        };
        let steering = steerings[(rng() % steerings.len() as u64) as usize];
        let iw = 1 + (rng() % 2) as usize;
        let n_buses = 1 + (rng() % 2) as usize;
        let mut cfg = make_pair(topology, steering, n_clusters, iw, n_buses);
        // Segmented buses reserve `n_clusters * hop_latency` slots, bounded
        // by the RESERVATION_WINDOW; keep the draw inside the valid range
        // (64-cluster rings require single-cycle hops).
        let max_hop = match topology {
            Topology::Ring | Topology::Conv => {
                ((rcmc_core::fabric::RESERVATION_WINDOW - 1) / n_clusters).min(4) as u64
            }
            _ => 4,
        };
        cfg.core.hop_latency = 1 + (rng() % max_hop) as u32;
        let bench = benches[(rng() % benches.len() as u64) as usize];
        let tag = format!("{}~hop{} × {}", cfg.name, cfg.core.hop_latency, bench);

        let trace = cached_trace(bench, budget.trace_len());
        let mut fast = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        let fast_stats = fast.run_with_warmup(budget.warmup, budget.measure);

        let mut stepped = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        stepped.set_event_driven(false);
        let stepped_stats = stepped.run_with_warmup(budget.warmup, budget.measure);

        assert!(
            fast_stats.committed > 0,
            "{tag}: nothing committed; the property test is vacuous"
        );
        assert_eq!(
            fast_stats, stepped_stats,
            "{tag}: event-driven run diverged from cycle-stepped run"
        );
    }
}

/// The wheel must also skip *something* at these scales — an event-driven
/// run that never fast-forwards would pass the equivalence vacuously while
/// silently regressing the whole point of the hot loop.
#[test]
fn event_driven_actually_skips_cycles_at_scale() {
    let budget = Budget {
        warmup: 200,
        measure: 800,
    };
    for (topology, n_clusters) in [(Topology::Ring, 64), (Topology::Hier, 32)] {
        let cfg = make_pair(topology, Steering::RingDep, n_clusters, 2, 1);
        let trace = cached_trace("gzip", budget.trace_len());

        let mut fast = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        let fast_stats = fast.run_with_warmup(budget.warmup, budget.measure);
        let skipped = fast.skipped_cycles();

        let mut stepped = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
        stepped.set_event_driven(false);
        let stepped_stats = stepped.run_with_warmup(budget.warmup, budget.measure);

        assert_eq!(
            fast_stats, stepped_stats,
            "{}: event-driven diverged from cycle-stepped",
            cfg.name
        );
        assert!(
            skipped > 0,
            "{}: the wheel skipped nothing on a memory-bound workload",
            cfg.name
        );
        assert_eq!(stepped.skipped_cycles(), 0, "stepped run must not skip");
    }
}

/// Loads spend `mem.dcache_transfer` cycles in transit to the LSQ; every
/// preset uses 1, so a load has always arrived by the time the idle probe
/// runs. Longer transfers keep loads in transit across the probe, which
/// must then treat them as live work, never skip past their arrival.
#[test]
fn event_driven_matches_cycle_stepped_with_in_transit_loads() {
    let budget = Budget {
        warmup: 200,
        measure: 800,
    };
    let machines = [
        (Topology::Ring, Steering::RingDep),
        (Topology::Conv, Steering::ConvDcount),
        (Topology::Mesh, Steering::Ssa),
    ];
    for (topology, steering) in machines {
        for transfer in [2u32, 3, 5] {
            for bench in ["mcf", "swim", "gzip"] {
                let mut cfg = make_pair(topology, steering, 8, 2, 1);
                cfg.mem.dcache_transfer = transfer;
                cfg.mem.mem_latency = 400;
                let tag = format!("{}~xfer{transfer} × {bench}", cfg.name);

                let trace = cached_trace(bench, budget.trace_len());
                let mut fast = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
                let fast_stats = fast.run_with_warmup(budget.warmup, budget.measure);

                let mut stepped = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
                stepped.set_event_driven(false);
                let stepped_stats = stepped.run_with_warmup(budget.warmup, budget.measure);

                assert!(fast_stats.committed > 0, "{tag}: nothing committed");
                assert_eq!(
                    fast_stats, stepped_stats,
                    "{tag}: event-driven run diverged from cycle-stepped run"
                );
                assert!(
                    fast.skipped_cycles() > 0,
                    "{tag}: the wheel skipped nothing"
                );
            }
        }
    }
}

/// On a memory-bound row almost every skip starts while the dispatch
/// stage is stalled on a full resource, so only the dispatch probe (which
/// replays the stall against frozen state) lets the wheel skip at all.
/// Measured: 718,086 of 726,917 cycles skipped (0.988); with the probe
/// bailing on every decoded instruction only 823 (0.001). The floor sits
/// just under the measured rate, so a change that drops the probe, or makes
/// it bail early, fails here.
#[test]
fn dispatch_probe_carries_the_memory_bound_skips() {
    let budget = Budget {
        warmup: 1_000,
        measure: 10_000,
    };
    let mut cfg = make_pair(Topology::Conv, Steering::ConvDcount, 8, 2, 1);
    cfg.mem.mem_latency = 400;
    let trace = cached_trace("mcf", budget.trace_len());
    let mut core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace);
    core.run_with_warmup(budget.warmup, budget.measure);
    let (skipped, cycles) = (core.skipped_cycles(), core.stats().cycles);
    let rate = skipped as f64 / cycles as f64;
    assert!(
        rate >= 0.98,
        "skip rate {rate:.4} ({skipped} of {cycles} cycles) fell below the 0.98 floor"
    );
}
