//! Cross-crate integration tests: programs flow from the assembler through
//! the emulator into both clustered cores, and the paper's structural
//! invariants hold on real workloads.

use ring_clustered::core::{Core, CoreConfig, Steering, Topology};
use ring_clustered::emu::trace_program;
use ring_clustered::sim::config;
use ring_clustered::sim::plan::ConfigSpec;
use ring_clustered::uarch::{MemConfig, PredictorConfig};
use ring_clustered::workloads::{benchmark, suite};

const WINDOW: usize = 12_000;

fn run(cfg: CoreConfig, trace: &ring_clustered::emu::Trace) -> ring_clustered::core::Stats {
    let mut core = Core::new(cfg, MemConfig::default(), PredictorConfig::default(), trace);
    core.run(u64::MAX).clone()
}

#[test]
fn every_benchmark_runs_on_every_table3_config() {
    // Smoke the full (config × suite) matrix with short windows: no
    // watchdog panics, every instruction commits, metrics stay sane.
    for cfg in ConfigSpec::group("table3").resolve().unwrap() {
        for b in suite().iter().step_by(5) {
            let trace = trace_program(&b.build(), 3_000).unwrap();
            let s = run(cfg.core.clone(), &trace);
            assert_eq!(
                s.committed,
                trace.len() as u64,
                "{} on {}: committed != trace length",
                b.name,
                cfg.name
            );
            assert!(
                s.ipc() > 0.01 && s.ipc() < 16.0,
                "{} on {}: IPC {}",
                b.name,
                cfg.name,
                s.ipc()
            );
        }
    }
}

#[test]
fn ring_comm_count_bounded_by_two_source_instructions() {
    // §3.1: "an instruction never requires two communications" on the ring,
    // so comms ≤ instructions with ≥1 register source.
    for name in ["galgel", "gcc", "equake"] {
        let b = benchmark(name).unwrap();
        let trace = trace_program(&b.build(), WINDOW).unwrap();
        let with_src = trace
            .iter()
            .filter(|d| d.insn.live_source_count() >= 1)
            .count() as u64;
        let s = run(
            CoreConfig {
                topology: Topology::Ring,
                steering: Steering::RingDep,
                ..CoreConfig::default()
            },
            &trace,
        );
        assert!(
            s.comms_created <= with_src,
            "{name}: {} comms for {} sourced instructions",
            s.comms_created,
            with_src
        );
    }
}

#[test]
fn comms_created_equals_comms_issued_on_drain() {
    // No squash path exists: every communication created must be issued.
    for name in ["swim", "vpr", "lucas"] {
        let b = benchmark(name).unwrap();
        let trace = trace_program(&b.build(), WINDOW).unwrap();
        for topology in config::ALL_TOPOLOGIES {
            let s = run(
                CoreConfig {
                    topology,
                    steering: config::default_steering(topology),
                    ..CoreConfig::default()
                },
                &trace,
            );
            assert_eq!(s.comms_created, s.comms_issued, "{name} {topology:?}");
        }
    }
}

#[test]
fn ring_distributes_dispatch_evenly_across_the_suite() {
    // Figure 11's property: on Ring_8clus_1bus_2IW every benchmark spreads
    // within a loose band around 1/8 per cluster.
    for b in suite().iter().step_by(3) {
        let trace = trace_program(&b.build(), WINDOW).unwrap();
        let s = run(CoreConfig::default(), &trace); // default == Ring 8c 1bus 2IW
        let shares = s.dispatch_shares(8);
        let mx = shares.iter().copied().fold(0.0f64, f64::max);
        assert!(
            mx < 0.30,
            "{}: max ring dispatch share {:.2} is too concentrated",
            b.name,
            mx
        );
    }
}

#[test]
fn conv_ssa_concentrates_ring_ssa_does_not() {
    let b = benchmark("wupwise").unwrap();
    let trace = trace_program(&b.build(), WINDOW).unwrap();
    let ring = run(
        CoreConfig {
            topology: Topology::Ring,
            steering: Steering::Ssa,
            ..CoreConfig::default()
        },
        &trace,
    );
    let conv = run(
        CoreConfig {
            topology: Topology::Conv,
            steering: Steering::Ssa,
            ..CoreConfig::default()
        },
        &trace,
    );
    let mx =
        |s: &ring_clustered::core::Stats| s.dispatch_shares(8).into_iter().fold(0.0f64, f64::max);
    assert!(
        mx(&conv) > 2.0 * mx(&ring),
        "conv {:.2} vs ring {:.2}",
        mx(&conv),
        mx(&ring)
    );
}

#[test]
fn two_cycle_hops_hurt_conv_more_than_ring() {
    // §4.6's direction: slower buses widen the Ring advantage.
    let b = benchmark("galgel").unwrap();
    let trace = trace_program(&b.build(), WINDOW).unwrap();
    let mut ring1 = config::make(Topology::Ring, 8, 2, 1).core;
    let mut conv1 = config::make(Topology::Conv, 8, 2, 1).core;
    let r1 = run(ring1.clone(), &trace).ipc();
    let c1 = run(conv1.clone(), &trace).ipc();
    ring1.hop_latency = 2;
    conv1.hop_latency = 2;
    let r2 = run(ring1, &trace).ipc();
    let c2 = run(conv1, &trace).ipc();
    assert!(
        r2 / c2 >= r1 / c1,
        "speedup should grow with hop latency: 1cyc {:.3} vs 2cyc {:.3}",
        r1 / c1,
        r2 / c2
    );
}

#[test]
fn deterministic_across_runs() {
    let b = benchmark("parser").unwrap();
    let trace = trace_program(&b.build(), WINDOW).unwrap();
    let a = run(CoreConfig::default(), &trace);
    let b2 = run(CoreConfig::default(), &trace);
    assert_eq!(a.cycles, b2.cycles);
    assert_eq!(a.comms_issued, b2.comms_issued);
    assert_eq!(a.nready, b2.nready);
    assert_eq!(a.dispatched_per_cluster, b2.dispatched_per_cluster);
}

#[test]
fn warmup_plus_measure_equals_full_run() {
    let b = benchmark("apsi").unwrap();
    let trace = trace_program(&b.build(), WINDOW).unwrap();
    let mut core = Core::new(
        CoreConfig::default(),
        MemConfig::default(),
        PredictorConfig::default(),
        &trace,
    );
    let window = core.run_with_warmup(2_000, 4_000);
    assert!(window.committed >= 4_000 && window.committed < 4_000 + 16);
    assert!(window.cycles > 0 && window.cycles < core.stats().cycles);
}
