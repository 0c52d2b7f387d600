//! Packed trace records: a materialized `Trace` stores each record in 8
//! bytes against its static instruction, and escapes to a per-trace table
//! the records its packed word cannot reproduce. The property: over random
//! static tables (every opcode class, branches with `imm = 0`, pcs at both
//! ends of the address space) and random records (consistent ones, and
//! addresses past 32 bits, addresses on non-memory instructions and
//! `next_pc`s their instruction would not produce), every reader yields
//! the input stream exactly (`Trace::iter`, `Trace::get`, `Trace::recs`,
//! `TraceSource::replay`, and a trace-store save and load), and the trace
//! holds one escape per record that a reference model of the derivation,
//! written out here, says cannot be derived. All 26 suite traces at the
//! paper's window pack with no escape.

use proptest::prelude::*;
use ring_clustered::emu::{
    trace_program, DynInsn, PackError, StaticInsn, Trace, TraceDb, TraceRec, TraceSource,
};
use ring_clustered::isa::{Insn, InsnClass, Opcode, Reg};
use ring_clustered::sim::runner::{all_bench_names, Budget};
use ring_clustered::workloads::benchmark;

/// SplitMix64: one seed drives a whole generated case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A valid instruction for `op`: the first operand form (each slot absent,
/// integer or FP) that validates, so it survives a store round trip.
fn valid_insn(op: Opcode, imm: i32) -> Insn {
    let slots = [None, Some(Reg::int(3)), Some(Reg::fp(4))];
    for rd in slots {
        for rs1 in slots {
            for rs2 in slots {
                let insn = Insn {
                    op,
                    rd,
                    rs1,
                    rs2,
                    imm,
                };
                if insn.validate().is_ok() {
                    return insn;
                }
            }
        }
    }
    panic!("{op:?} has no valid form");
}

/// The reference derivation: whether a packed record can stand for
/// `(next_pc, mem_addr)` at static instruction `s` without an escape.
fn derivable(s: &StaticInsn, next_pc: u32, mem_addr: u64) -> bool {
    let fall = s.pc.wrapping_add(1);
    let target = (s.pc as i64 + 1 + s.insn.imm as i64) as u32;
    match s.insn.op {
        Opcode::Ld | Opcode::St | Opcode::Fld | Opcode::Fst => {
            next_pc == fall && mem_addr <= u32::MAX as u64
        }
        Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge => {
            mem_addr == 0 && (next_pc == fall || next_pc == target)
        }
        Opcode::Jal => mem_addr == 0 && next_pc == target,
        Opcode::Jalr => mem_addr == 0,
        Opcode::Halt => mem_addr == 0 && next_pc == s.pc,
        _ => mem_addr == 0 && next_pc == fall,
    }
}

/// What a generated record was made to be.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    /// `next_pc` and `mem_addr` as its instruction produces them.
    Consistent,
    /// A load or store past 32 bits of address.
    HighAddress,
    /// A non-memory instruction carrying an address.
    StrayAddress,
    /// A `next_pc` its instruction would not produce (a fall-through
    /// where it jumps, or anywhere else).
    WrongNextPc,
}

/// One generated case: a static table and records over it.
struct Case {
    statics: Vec<StaticInsn>,
    recs: Vec<TraceRec>,
    kinds: Vec<Kind>,
}

fn case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(16) as usize;
    let statics: Vec<StaticInsn> = (0..n)
        .map(|_| {
            let op = rng.pick(Opcode::ALL);
            let imm = match rng.below(4) {
                0 => 0,
                1 => rng.below(64) as i32 - 32,
                2 => rng.pick(&[i32::MIN, i32::MAX, -1, 1]),
                _ => rng.next() as i32,
            };
            let pc = match rng.below(3) {
                0 => rng.below(64) as u32,
                1 => u32::MAX - rng.below(8) as u32,
                _ => rng.next() as u32,
            };
            StaticInsn {
                insn: valid_insn(op, imm),
                pc,
            }
        })
        .collect();
    let len = rng.below(120) as usize;
    let (mut recs, mut kinds) = (Vec::with_capacity(len), Vec::with_capacity(len));
    for _ in 0..len {
        let sid = rng.below(n as u64) as u32;
        let s = statics[sid as usize];
        let (fall, target) = (
            s.pc.wrapping_add(1),
            (s.pc as i64 + 1 + s.insn.imm as i64) as u32,
        );
        let is_mem = s.insn.class().is_mem();
        let mut kind = Kind::Consistent;
        let (mut next_pc, mut mem_addr) = match s.insn.op {
            _ if is_mem => (fall, rng.below(1 << 32) & !7),
            op if op.is_cond_branch() => (if rng.below(2) == 0 { fall } else { target }, 0),
            Opcode::Jal => (target, 0),
            Opcode::Jalr => (rng.next() as u32, 0),
            Opcode::Halt => (s.pc, 0),
            _ => (fall, 0),
        };
        match rng.below(8) {
            0 if is_mem => {
                kind = Kind::HighAddress;
                mem_addr |= (1 + rng.below(1 << 20)) << 32;
            }
            1 if !is_mem => {
                kind = Kind::StrayAddress;
                mem_addr = 8 * (1 + rng.below(1 << 40));
            }
            2 if s.insn.op != Opcode::Jalr => {
                kind = Kind::WrongNextPc;
                next_pc = if rng.below(2) == 0 {
                    fall
                } else {
                    rng.next() as u32
                };
            }
            _ => {}
        }
        recs.push(TraceRec {
            sid,
            next_pc,
            mem_addr,
        });
        kinds.push(kind);
    }
    Case {
        statics,
        recs,
        kinds,
    }
}

fn logical(statics: &[StaticInsn], r: &TraceRec) -> DynInsn {
    let s = statics[r.sid as usize];
    DynInsn {
        insn: s.insn,
        pc: s.pc,
        next_pc: r.next_pc,
        mem_addr: r.mem_addr,
    }
}

/// Every reader of a trace packed from `c` yields `c`'s stream, and the
/// trace holds exactly one escape per record the reference cannot derive.
fn check_case(c: &Case, db: &TraceDb) {
    let mut t = Trace::new(c.statics.clone(), false, c.statics.len());
    for &r in &c.recs {
        t.push(r).expect("every generated sid is in the table");
    }
    let want: Vec<DynInsn> = c.recs.iter().map(|r| logical(&c.statics, r)).collect();
    let escapes = c
        .recs
        .iter()
        .filter(|r| !derivable(&c.statics[r.sid as usize], r.next_pc, r.mem_addr))
        .count();
    assert_eq!(t.escapes(), escapes, "one escape per underivable record");
    assert_eq!(t.len(), c.recs.len());
    assert_eq!(t.bytes(), 8 * t.len() + 16 * escapes + 16 * c.statics.len());
    assert!(t.iter().eq(want.iter().copied()), "Trace::iter");
    assert!(t.recs().eq(c.recs.iter().copied()), "Trace::recs");
    for (i, d) in want.iter().enumerate() {
        assert_eq!(t.get(i), Some(*d), "Trace::get({i})");
    }
    assert_eq!(t.get(want.len()), None);
    let replay = TraceSource::replay(&t);
    assert_eq!(replay.statics(), &c.statics[..]);
    assert!(replay.eq(c.recs.iter().copied()), "TraceSource::replay");

    assert!(db.save("packed", 7, &t), "save");
    let back = db.load_full("packed", 7).expect("a saved trace loads");
    assert!(back.iter().eq(want.iter().copied()), "after save and load");
    assert_eq!(back.escapes(), escapes, "after save and load");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn packed_traces_reproduce_their_records(seed in any::<u64>()) {
        let dir = std::env::temp_dir()
            .join(format!("rcmc-packing-{}-{seed:x}", std::process::id()));
        let db = TraceDb::at(dir.clone());
        check_case(&case(seed), &db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The generator reaches every opcode class, `imm = 0` branches, `jalr`
/// and `halt`, and every kind of record the derivation cannot reproduce,
/// so the property above covers the whole packed form.
#[test]
fn packing_cases_cover_every_form() {
    let (mut classes, mut kinds) = (Vec::new(), Vec::new());
    let (mut zero_branch, mut jalr, mut halt) = (false, false, false);
    for seed in 0..256 {
        let c = case(seed);
        for (r, &kind) in c.recs.iter().zip(&c.kinds) {
            let insn = c.statics[r.sid as usize].insn;
            classes.push(insn.class());
            kinds.push(kind);
            zero_branch |= insn.op.is_cond_branch() && insn.imm == 0;
            jalr |= insn.op == Opcode::Jalr;
            halt |= insn.op == Opcode::Halt;
        }
    }
    for class in [
        InsnClass::IntAlu,
        InsnClass::IntMul,
        InsnClass::IntDiv,
        InsnClass::FpAlu,
        InsnClass::FpMul,
        InsnClass::FpDiv,
        InsnClass::Load,
        InsnClass::Store,
        InsnClass::Branch,
        InsnClass::Jump,
        InsnClass::Nop,
        InsnClass::Halt,
    ] {
        assert!(classes.contains(&class), "{class:?} never generated");
    }
    kinds.sort();
    kinds.dedup();
    assert_eq!(
        kinds,
        [
            Kind::Consistent,
            Kind::HighAddress,
            Kind::StrayAddress,
            Kind::WrongNextPc
        ]
    );
    assert!(zero_branch && jalr && halt);
}

/// A static id or escape index that does not fit is an error, not a panic.
#[test]
fn a_sid_outside_the_table_is_refused() {
    let statics = vec![StaticInsn {
        insn: Insn::nop(),
        pc: 0,
    }];
    let mut t = Trace::new(statics, false, 1);
    for sid in [1, 1 << 31, u32::MAX] {
        let rec = TraceRec {
            sid,
            next_pc: 1,
            mem_addr: 0,
        };
        assert_eq!(t.push(rec), Err(PackError::BadSid(sid)));
    }
    assert!(t.is_empty());
}

/// The suite's programs stay below 2^32 in memory and their `next_pc`s
/// follow their instructions, so at the paper's window no record escapes:
/// 8 bytes per traced instruction.
#[test]
fn suite_traces_pack_without_escapes() {
    let len = Budget {
        warmup: 30_000,
        measure: 200_000,
    }
    .trace_len() as usize;
    for name in all_bench_names() {
        let p = benchmark(name).expect("suite benchmark").build();
        let t = trace_program(&p, len).expect("suite benchmarks emulate");
        assert_eq!(t.escapes(), 0, "{name}");
        assert_eq!(t.bytes(), 8 * t.len() + 16 * p.insns.len(), "{name}");
    }
}
