//! Property tests over randomly generated (but well-formed) programs: the
//! pipeline must never deadlock, must commit exactly the oracle stream, and
//! the conservation invariants must hold for every topology/steering combo;
//! Ssa must steer the instructions without a live source round-robin.

use proptest::prelude::*;
use ring_clustered::asm::Asm;
use ring_clustered::core::{Core, CoreConfig, PipeTracer, Steering, Topology};
use ring_clustered::emu::{trace_program, Trace};
use ring_clustered::isa::{InsnClass, Reg};
use ring_clustered::uarch::{MemConfig, PredictorConfig};

/// One step of a random straight-line body. Values are chosen so programs
/// stay well-defined (bounded memory region, no divides by anything wild).
#[derive(Clone, Debug)]
enum Op {
    IntAlu { dst: u8, a: u8, b: u8, kind: u8 },
    IntImm { dst: u8, a: u8, imm: i32, kind: u8 },
    Fp { dst: u8, a: u8, b: u8, kind: u8 },
    Load { dst: u8, slot: u8, fp: bool },
    Store { src: u8, slot: u8, fp: bool },
    Skip { a: u8, b: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..16, 0u8..16, 0u8..16, 0u8..6).prop_map(|(dst, a, b, kind)| Op::IntAlu {
            dst,
            a,
            b,
            kind
        }),
        (1u8..16, 0u8..16, -64i32..64, 0u8..4).prop_map(|(dst, a, imm, kind)| Op::IntImm {
            dst,
            a,
            imm,
            kind
        }),
        (0u8..16, 0u8..16, 0u8..16, 0u8..5).prop_map(|(dst, a, b, kind)| Op::Fp {
            dst,
            a,
            b,
            kind
        }),
        (1u8..16, 0u8..32, any::<bool>()).prop_map(|(dst, slot, fp)| Op::Load { dst, slot, fp }),
        (0u8..16, 0u8..32, any::<bool>()).prop_map(|(src, slot, fp)| Op::Store { src, slot, fp }),
        (0u8..16, 0u8..16).prop_map(|(a, b)| Op::Skip { a, b }),
    ]
}

/// Build a looped program from the random body (loops keep the I-cache
/// realistic and let the window fill).
fn build_program(body: &[Op]) -> ring_clustered::isa::Program {
    let mut a = Asm::new();
    let buf = a.data_zero(32 * 8);
    let r = Reg::int;
    let f = Reg::fp;
    a.movi_addr(r(20), buf);
    for i in 0..8 {
        a.movi(r(1 + i), i as i32 * 3 + 1);
    }
    a.movi(r(21), 400); // outer iterations
    let top = a.label_here();
    for op in body {
        match *op {
            Op::IntAlu { dst, a: x, b, kind } => {
                let (dst, x, b) = (r(dst % 16), r(x % 16), r(b % 16));
                match kind {
                    0 => a.add(dst, x, b),
                    1 => a.sub(dst, x, b),
                    2 => a.and(dst, x, b),
                    3 => a.xor(dst, x, b),
                    4 => a.mul(dst, x, b),
                    _ => a.sltu(dst, x, b),
                }
            }
            Op::IntImm {
                dst,
                a: x,
                imm,
                kind,
            } => {
                let (dst, x) = (r(dst % 16), r(x % 16));
                match kind {
                    0 => a.addi(dst, x, imm),
                    1 => a.andi(dst, x, imm),
                    2 => a.ori(dst, x, imm),
                    _ => a.slti(dst, x, imm),
                }
            }
            Op::Fp { dst, a: x, b, kind } => {
                let (dst, x, b) = (f(dst % 16), f(x % 16), f(b % 16));
                match kind {
                    0 => a.fadd(dst, x, b),
                    1 => a.fsub(dst, x, b),
                    2 => a.fmul(dst, x, b),
                    3 => a.fmin(dst, x, b),
                    _ => a.fmax(dst, x, b),
                }
            }
            Op::Load { dst, slot, fp } => {
                if fp {
                    a.fld(f(dst % 16), r(20), (slot as i32 % 32) * 8);
                } else {
                    a.ld(r(dst % 16), r(20), (slot as i32 % 32) * 8);
                }
            }
            Op::Store { src, slot, fp } => {
                if fp {
                    a.fst(f(src % 16), r(20), (slot as i32 % 32) * 8);
                } else {
                    a.st(r(src % 16), r(20), (slot as i32 % 32) * 8);
                }
            }
            Op::Skip { a: x, b } => {
                let skip = a.new_label();
                a.beq(r(x % 16), r(b % 16), skip);
                a.addi(r(15), r(15), 1);
                a.bind(skip);
            }
        }
    }
    a.addi(r(21), r(21), -1);
    a.bne(r(21), r(0), top);
    a.halt();
    a.assemble().expect("random program must assemble")
}

fn all_configs() -> Vec<CoreConfig> {
    let mut v = Vec::new();
    for (topology, steering) in [
        (Topology::Ring, Steering::RingDep),
        (Topology::Conv, Steering::ConvDcount),
        (Topology::Ring, Steering::Ssa),
        (Topology::Conv, Steering::Ssa),
    ] {
        v.push(CoreConfig {
            topology,
            steering,
            ..CoreConfig::default()
        });
        v.push(CoreConfig {
            topology,
            steering,
            n_clusters: 4,
            iq_int: 32,
            iq_fp: 32,
            regs_int: 64,
            regs_fp: 64,
            n_buses: 2,
            ..CoreConfig::default()
        });
    }
    v
}

/// Run `trace` to the end on `cfg` with every instruction traced, and
/// check the window capacities from the recorded cycles alone, sharing no
/// code with the pipeline's own capacity checks: after dispatch in any
/// cycle at most `rob` instructions are dispatched and not committed
/// (commit runs first in a cycle), after fetch at most `fetch_queue` are
/// fetched and not dispatched (dispatch runs first), and no cycle commits
/// more than `commit_width`.
fn check_window_capacities(cfg: &CoreConfig, trace: &Trace) {
    let mut core = Core::new(
        cfg.clone(),
        MemConfig::default(),
        PredictorConfig::default(),
        trace,
    );
    core.attach_tracer(PipeTracer::new(0, trace.len() as u32));
    core.run(u64::MAX);
    let end = core.cycle() as usize + 1;
    let tracer = core.take_tracer().expect("tracer attached");
    // Per-cycle deltas: an instruction occupies the fetch queue over
    // [fetch, dispatch) and the ROB over [dispatch, commit).
    let (mut fq, mut rob, mut commits) = (vec![0i64; end], vec![0i64; end], vec![0usize; end]);
    for i in 0..trace.len() as u32 {
        let r = tracer.get(i).expect("inside the traced window");
        assert!(
            0 < r.fetch && r.fetch <= r.dispatch && r.dispatch < r.commit,
            "instruction {} has fetch {} dispatch {} commit {}",
            i,
            r.fetch,
            r.dispatch,
            r.commit
        );
        let (f, d, c) = (r.fetch as usize, r.dispatch as usize, r.commit as usize);
        fq[f] += 1;
        fq[d] -= 1;
        rob[d] += 1;
        rob[c] -= 1;
        commits[c] += 1;
    }
    let (mut in_fq, mut in_rob) = (0, 0);
    for t in 0..end {
        in_fq += fq[t];
        in_rob += rob[t];
        assert!(
            in_fq <= cfg.fetch_queue as i64,
            "fetch queue holds {} at cycle {}",
            in_fq,
            t
        );
        assert!(
            in_rob <= cfg.rob as i64,
            "ROB holds {} at cycle {}",
            in_rob,
            t
        );
        assert!(
            commits[t] <= cfg.commit_width,
            "{} commits at cycle {}",
            commits[t],
            t
        );
    }
}

/// Run `trace` to the end on the Ssa configuration `cfg`, cycle by cycle
/// with every instruction traced, and check §4.7's round-robin from the
/// recorded clusters alone: the k-th dispatched instruction without a live
/// source (`r0` is no source; nops and halt do not steer) executes in
/// cluster `k mod n_clusters`. An IQ, LSQ, register or communication stall
/// re-steers its instruction and so may move the phase on, so the check
/// covers the instructions dispatched up to the cycle of the first such
/// stall (dispatch stops at a stall, so all of them steered before it), or
/// every one when the run charged none; a ROB stall never steers. Answers
/// how many instructions it checked.
fn check_ssa_round_robin(cfg: &CoreConfig, trace: &Trace) -> usize {
    let mut core = Core::new(
        cfg.clone(),
        MemConfig::default(),
        PredictorConfig::default(),
        trace,
    );
    core.attach_tracer(PipeTracer::new(0, trace.len() as u32));
    core.set_event_driven(false);
    let expect = trace.len() as u64 - u64::from(trace.halted);
    let mut last = u64::MAX;
    while !core.halted() && core.stats().committed < expect {
        core.tick();
        let s = &core.stats().stalls;
        if last == u64::MAX && s.iq_full + s.lsq_full + s.regs_full + s.comm_full > 0 {
            last = core.cycle() - 1;
        }
    }
    let tracer = core.take_tracer().expect("tracer attached");
    let sourceless = trace.iter().enumerate().filter(|(_, d)| {
        !matches!(d.insn.class(), InsnClass::Nop | InsnClass::Halt)
            && d.insn.sources().iter().flatten().all(|r| r.is_zero())
    });
    let mut checked = 0;
    for (k, (i, d)) in sourceless.enumerate() {
        let r = tracer.get(i as u32).expect("inside the traced window");
        if r.dispatch > last {
            break;
        }
        assert_eq!(
            r.cluster as usize,
            k % cfg.n_clusters,
            "source-less instruction {} ({}), the {}-th, on {:?}",
            i,
            d.insn,
            k,
            cfg.topology
        );
        checked += 1;
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_never_deadlock(body in prop::collection::vec(arb_op(), 4..40)) {
        let program = build_program(&body);
        let trace = trace_program(&program, 6_000).unwrap();
        for cfg in all_configs() {
            let mut core = Core::new(
                cfg.clone(),
                MemConfig::default(),
                PredictorConfig::default(),
                &trace,
            );
            let stats = core.run(u64::MAX);
            // Every oracle instruction commits, in order, minus the final
            // halt if present.
            let expect = trace.len() as u64 - u64::from(trace.halted);
            prop_assert_eq!(stats.committed, expect);
            // Conservation: all created comms issue once the pipeline drains.
            prop_assert_eq!(stats.comms_created, stats.comms_issued);
            // Every dispatched instruction belongs to exactly one cluster.
            let dispatched: u64 = stats.dispatched_per_cluster.iter().sum();
            prop_assert!(dispatched <= trace.len() as u64);
        }
    }

    /// Every configuration, plus a narrow window whose ROB, fetch queue
    /// and commit width bind often.
    #[test]
    fn random_programs_respect_window_capacities(body in prop::collection::vec(arb_op(), 4..40)) {
        let program = build_program(&body);
        let trace = trace_program(&program, 6_000).unwrap();
        let narrow = CoreConfig {
            rob: 16,
            fetch_queue: 4,
            fetch_width: 4,
            commit_width: 2,
            ..CoreConfig::default()
        };
        for cfg in all_configs().iter().chain([&narrow]) {
            check_window_capacities(cfg, &trace);
        }
    }

    #[test]
    fn random_programs_agree_between_budgeted_and_full_runs(
        body in prop::collection::vec(arb_op(), 4..24)
    ) {
        let program = build_program(&body);
        let trace = trace_program(&program, 4_000).unwrap();
        let cfg = CoreConfig::default();
        let mut full = Core::new(cfg.clone(), MemConfig::default(), PredictorConfig::default(), &trace);
        full.run(u64::MAX);
        let mut budgeted = Core::new(cfg, MemConfig::default(), PredictorConfig::default(), &trace);
        budgeted.run(1_000);
        // The budgeted run is a strict prefix in committed count and cycles.
        prop_assert!(budgeted.stats().committed <= full.stats().committed);
        prop_assert!(budgeted.stats().cycles <= full.stats().cycles);
    }

    /// The Ring+Ssa and Conv+Ssa rows of every configuration.
    #[test]
    fn ssa_steers_sourceless_instructions_round_robin(
        body in prop::collection::vec(arb_op(), 4..40)
    ) {
        let program = build_program(&body);
        let trace = trace_program(&program, 6_000).unwrap();
        for cfg in all_configs().iter().filter(|c| c.steering == Steering::Ssa) {
            // The prologue's `movi`s dispatch before any stall.
            prop_assert!(check_ssa_round_robin(cfg, &trace) > 0);
        }
    }
}
