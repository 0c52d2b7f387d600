//! End-to-end pipeline tests on small hand-built programs.

use rcmc_asm::Asm;
use rcmc_emu::{trace_program, Trace};
use rcmc_isa::Reg;
use rcmc_uarch::{MemConfig, PredictorConfig};

use crate::config::{CoreConfig, Steering, Topology};
use crate::pipeline::Core;
use crate::stats::Stats;

fn r(n: u8) -> Reg {
    Reg::int(n)
}
fn f(n: u8) -> Reg {
    Reg::fp(n)
}

fn run_trace(cfg: CoreConfig, trace: &Trace) -> Stats {
    let mut core = Core::new(cfg, MemConfig::default(), PredictorConfig::default(), trace);
    core.run(u64::MAX).clone()
}

fn ring_cfg(n: usize) -> CoreConfig {
    CoreConfig {
        n_clusters: n,
        topology: Topology::Ring,
        steering: Steering::RingDep,
        regs_int: 64,
        regs_fp: 64,
        ..CoreConfig::default()
    }
}

fn conv_cfg(n: usize) -> CoreConfig {
    CoreConfig {
        n_clusters: n,
        topology: Topology::Conv,
        steering: Steering::ConvDcount,
        regs_int: 64,
        regs_fp: 64,
        ..CoreConfig::default()
    }
}

/// A pure serial dependence chain: a small unrolled body looped `iters`
/// times (looping keeps the I-cache warm, like the paper's steady-state
/// measurement windows; straight-line cold code would measure the memory
/// system, not the back end).
fn serial_chain(iters: usize) -> Trace {
    let mut a = Asm::new();
    a.movi(r(1), 0);
    a.movi(r(10), iters as i32);
    let top = a.label_here();
    for _ in 0..16 {
        a.addi(r(1), r(1), 1);
    }
    a.addi(r(10), r(10), -1);
    a.bne(r(10), r(0), top);
    a.halt();
    let p = a.assemble().unwrap();
    trace_program(&p, 32 * iters + 64).unwrap()
}

/// `width` independent chains interleaved, looped.
fn parallel_chains(width: usize, iters: usize) -> Trace {
    let mut a = Asm::new();
    for w in 0..width {
        a.movi(r(1 + w as u8), 0);
    }
    a.movi(r(10), iters as i32);
    let top = a.label_here();
    for _ in 0..4 {
        for w in 0..width {
            let reg = r(1 + w as u8);
            a.addi(reg, reg, 1);
        }
    }
    a.addi(r(10), r(10), -1);
    a.bne(r(10), r(0), top);
    a.halt();
    let p = a.assemble().unwrap();
    trace_program(&p, (4 * width + 4) * iters + 64).unwrap()
}

#[test]
fn commits_every_instruction_in_order() {
    let t = serial_chain(20);
    let s = run_trace(ring_cfg(4), &t);
    // Everything except the final halt commits.
    assert_eq!(s.committed, t.len() as u64 - 1);
}

#[test]
fn ring_serial_chain_is_back_to_back() {
    // A serial chain of 1-cycle ops must sustain ~1 IPC on the ring: each
    // consumer sits in the next cluster and issues back-to-back.
    let t = serial_chain(800);
    let s = run_trace(ring_cfg(8), &t);
    assert!(s.ipc() > 0.9, "ring serial chain IPC = {:.3}", s.ipc());
    // And the chain requires no bus communications at all.
    assert_eq!(
        s.comms_issued, 0,
        "adjacent-cluster forwarding needs no bus"
    );
}

#[test]
fn conv_serial_chain_is_back_to_back() {
    // A lone serial chain never piles up dispatched-but-unissued work, so
    // DCOUNT stays below threshold and Conv keeps the chain local with
    // intra-cluster back-to-back issue — matching the ring's throughput.
    let t = serial_chain(800);
    let s = run_trace(conv_cfg(8), &t);
    assert!(s.ipc() > 0.9, "conv serial chain IPC = {:.3}", s.ipc());
    assert_eq!(
        s.comms_issued, 0,
        "a lone chain should not trigger balance mode"
    );
    // And unlike the ring, the work concentrates in very few clusters.
    let max_share = s.dispatch_shares(8).into_iter().fold(0.0f64, f64::max);
    assert!(
        max_share > 0.4,
        "conv concentrates a lone chain (max share {max_share:.2})"
    );
}

#[test]
fn ring_serial_chain_round_robins_clusters() {
    // The defining property: a serial chain marches around the ring, so
    // dispatch is spread almost perfectly evenly.
    let t = serial_chain(1000);
    let s = run_trace(ring_cfg(8), &t);
    let shares = s.dispatch_shares(8);
    for (c, sh) in shares.iter().enumerate() {
        assert!(
            (sh - 0.125).abs() < 0.02,
            "cluster {c} share {sh:.3} should be ~1/8 on the ring"
        );
    }
}

#[test]
fn parallel_chains_reach_high_ipc() {
    let t = parallel_chains(8, 400);
    let s = run_trace(ring_cfg(8), &t);
    assert!(
        s.ipc() > 2.5,
        "8 independent chains should exceed IPC 2.5, got {:.3}",
        s.ipc()
    );
}

#[test]
fn fp_chain_uses_fp_pipe() {
    let mut a = Asm::new();
    a.movi(r(1), 1);
    a.fcvtif(f(1), r(1));
    for _ in 0..100 {
        a.fadd(f(1), f(1), f(1));
    }
    a.halt();
    let p = a.assemble().unwrap();
    let t = trace_program(&p, 4096).unwrap();
    let s = run_trace(ring_cfg(4), &t);
    assert_eq!(s.committed_fp, 101); // fcvtif + 100 fadd
    assert!(s.issued_fp >= 101);
    // FP adds are 2-cycle: a serial FP chain can't beat 0.5 IPC.
    assert!(
        s.ipc() < 0.75,
        "serial 2-cycle chain IPC bound, got {:.3}",
        s.ipc()
    );
}

#[test]
fn load_store_roundtrip_commits() {
    let mut a = Asm::new();
    let buf = a.data_zero(256);
    a.movi_addr(r(2), buf);
    a.movi(r(3), 7);
    a.movi(r(10), 16); // loop so the I-cache warms up
    let top = a.label_here();
    for i in 0..4 {
        a.st(r(3), r(2), i * 8);
        a.ld(r(4), r(2), i * 8); // immediately reloads the stored word
    }
    a.addi(r(10), r(10), -1);
    a.bne(r(10), r(0), top);
    a.halt();
    let p = a.assemble().unwrap();
    let t = trace_program(&p, 4096).unwrap();
    let s = run_trace(ring_cfg(4), &t);
    assert_eq!(s.committed_stores, 64);
    assert_eq!(s.committed_loads, 64);
    assert!(
        s.store_forwards > 0,
        "loads right after matching stores should forward"
    );
}

#[test]
fn branchy_loop_commits_and_predicts() {
    let mut a = Asm::new();
    a.movi(r(1), 200);
    let top = a.label_here();
    a.addi(r(1), r(1), -1);
    a.bne(r(1), r(0), top);
    a.halt();
    let p = a.assemble().unwrap();
    let t = trace_program(&p, 4096).unwrap();
    let s = run_trace(ring_cfg(4), &t);
    assert_eq!(s.committed_branches, 200);
    // A simple countdown loop is near-perfectly predictable after warmup.
    assert!(s.branch_misses <= 8, "misses = {}", s.branch_misses);
}

#[test]
fn diamond_dependence_creates_comms_on_ring() {
    let t = diamond();
    let s = run_trace(ring_cfg(8), &t);
    assert_eq!(s.committed, t.len() as u64 - 1);
    assert!(
        s.comms_issued > 0,
        "joins across clusters should need communications"
    );
    assert!(s.dist_per_comm() >= 1.0);
}

/// Two chains advancing around the ring at different speeds, joined every
/// iteration: the join's operands live in different clusters, forcing a
/// communication.
fn diamond() -> Trace {
    let mut a = Asm::new();
    a.movi(r(1), 1);
    a.movi(r(2), 2);
    a.movi(r(10), 100);
    let top = a.label_here();
    // Chain A advances 3 clusters, chain B advances 1.
    a.addi(r(1), r(1), 1);
    a.addi(r(1), r(1), 1);
    a.addi(r(1), r(1), 1);
    a.addi(r(2), r(2), 1);
    a.add(r(3), r(1), r(2)); // join: r1 and r2 are in different clusters
    a.addi(r(10), r(10), -1);
    a.bne(r(10), r(0), top);
    a.halt();
    let p = a.assemble().unwrap();
    trace_program(&p, 4096).unwrap()
}

#[test]
fn longest_bus_path_at_the_window_edge_runs() {
    // 32 clusters at 4 cycles/hop: a 31-hop bus path books its last
    // segment at offset 120 of the 128-cycle reservation window.
    let t = diamond();
    for mut cfg in [ring_cfg(32), conv_cfg(32)] {
        cfg.hop_latency = 4;
        let s = run_trace(cfg, &t);
        assert_eq!(s.committed, t.len() as u64 - 1);
        assert!(s.comms_issued > 0);
    }
}

#[test]
fn conv_and_ring_both_drain_without_watchdog() {
    // Mixed program with loads, fp, branches on every topology/steering.
    let mut a = Asm::new();
    let buf = a.data_f64(&[1.0; 64]);
    a.movi_addr(r(2), buf);
    a.movi(r(1), 50);
    let top = a.label_here();
    a.fld(f(1), r(2), 0);
    a.fadd(f(2), f(2), f(1));
    a.fst(f(2), r(2), 8);
    a.addi(r(1), r(1), -1);
    a.bne(r(1), r(0), top);
    a.halt();
    let p = a.assemble().unwrap();
    let t = trace_program(&p, 8192).unwrap();
    for cfg in [ring_cfg(4), ring_cfg(8), conv_cfg(4), conv_cfg(8)] {
        let s = run_trace(cfg, &t);
        assert_eq!(s.committed, 2 + 50 * 5);
    }
}

#[test]
fn ssa_on_conv_concentrates_work() {
    // §4.7: Conv+SSA piles dependent work onto few clusters; Ring+SSA
    // inherently spreads it.
    let t = serial_chain(300);
    let mut conv = conv_cfg(8);
    conv.steering = Steering::Ssa;
    let mut ring = ring_cfg(8);
    ring.steering = Steering::Ssa;
    let sc = run_trace(conv, &t);
    let sr = run_trace(ring, &t);
    let conv_max = sc.dispatch_shares(8).into_iter().fold(0.0f64, f64::max);
    let ring_max = sr.dispatch_shares(8).into_iter().fold(0.0f64, f64::max);
    assert!(
        conv_max > 0.8,
        "conv+SSA should concentrate (max share {conv_max:.3})"
    );
    assert!(
        ring_max < 0.2,
        "ring+SSA should spread (max share {ring_max:.3})"
    );
}

#[test]
fn mispredictions_cost_cycles() {
    // A data-dependent unpredictable branch pattern vs a predictable one.
    let mk = |pattern_reg_update: bool| {
        let mut a = Asm::new();
        a.movi(r(1), 400); // counter
        a.movi(r(5), 0x12345); // lcg state
        let top = a.label_here();
        if pattern_reg_update {
            // pseudo-random decision
            a.movi(r(7), 1103515245);
            a.mul(r(5), r(5), r(7));
            a.addi(r(5), r(5), 12345);
            a.srli(r(6), r(5), 16);
            a.andi(r(6), r(6), 1);
        } else {
            a.movi(r(6), 0);
        }
        let skip = a.new_label();
        a.beq(r(6), r(0), skip);
        a.addi(r(9), r(9), 1);
        a.bind(skip);
        a.addi(r(1), r(1), -1);
        a.bne(r(1), r(0), top);
        a.halt();
        let p = a.assemble().unwrap();
        trace_program(&p, 1 << 14).unwrap()
    };
    let random = mk(true);
    let stable = mk(false);
    let s_rand = run_trace(ring_cfg(4), &random);
    let s_stab = run_trace(ring_cfg(4), &stable);
    assert!(
        s_rand.branch_miss_rate() > 0.08,
        "random pattern should mispredict, rate = {:.3}",
        s_rand.branch_miss_rate()
    );
    assert!(s_stab.branch_miss_rate() < 0.05);
}

#[test]
fn warmup_window_subtracts() {
    let t = serial_chain(200);
    let cfg = ring_cfg(4);
    let mut core = Core::new(cfg, MemConfig::default(), PredictorConfig::default(), &t);
    let window = core.run_with_warmup(1000, 1000);
    assert_eq!(window.committed, 1000);
    assert!(window.cycles > 0);
}

#[test]
fn truncated_trace_without_halt_drains() {
    let mut t = serial_chain(50);
    t.insns.truncate(300); // cut before halt
    let s = run_trace(ring_cfg(4), &t);
    assert_eq!(s.committed, 300);
}

#[test]
fn comm_conservation() {
    // Every created communication is eventually issued when the program
    // drains (no squashes exist in this model).
    let mut a = Asm::new();
    a.movi(r(1), 1);
    for _ in 0..64 {
        a.addi(r(2), r(1), 1);
        a.addi(r(3), r(1), 2);
        a.add(r(1), r(2), r(3));
    }
    a.halt();
    let p = a.assemble().unwrap();
    let t = trace_program(&p, 2048).unwrap();
    let s = run_trace(ring_cfg(8), &t);
    assert_eq!(s.comms_created, s.comms_issued);
}

#[test]
fn two_buses_reduce_contention() {
    let mut a = Asm::new();
    a.movi(r(1), 1);
    for _ in 0..200 {
        a.addi(r(2), r(1), 1);
        a.addi(r(3), r(1), 2);
        a.addi(r(4), r(1), 3);
        a.add(r(5), r(2), r(3));
        a.add(r(6), r(4), r(5));
        a.add(r(1), r(5), r(6));
    }
    a.halt();
    let p = a.assemble().unwrap();
    let t = trace_program(&p, 4096).unwrap();
    let mut one = ring_cfg(8);
    one.n_buses = 1;
    let mut two = ring_cfg(8);
    two.n_buses = 2;
    let s1 = run_trace(one, &t);
    let s2 = run_trace(two, &t);
    assert!(
        s2.wait_per_comm() <= s1.wait_per_comm() + 1e-9,
        "two buses must not increase bus wait ({} vs {})",
        s2.wait_per_comm(),
        s1.wait_per_comm()
    );
}
