//! Emulator oracle: the predecoded interpreter over page-indexed memory
//! must produce exactly what a plain reference emulator produces.
//!
//! The reference below is the emulator as it was first written: a `match`
//! on each `Insn` straight from the program, separate `i64`/`f64` register
//! files, and a `HashMap` page table filled byte by byte. It is slow and
//! obviously right. Both run random valid programs over every opcode and
//! all 26 suite benchmarks at the default trace length, and must agree on
//! the `Trace` (`insns`, `halted`, `static_insns`), the error (if any), and
//! the final architectural state: pc, registers and resident pages.

use std::collections::HashMap;

use proptest::prelude::*;
use ring_clustered::emu::{trace_program, Cpu, DynInsn, EmuError, Trace, TraceError};
use ring_clustered::isa::{DataSeg, Insn, Opcode, Program, Reg, DATA_BASE};
use ring_clustered::sim::runner::{all_bench_names, Budget};
use ring_clustered::workloads::benchmark;

/// The reference: the emulator's semantics, written for clarity rather
/// than speed.
mod reference {
    use super::*;

    const PAGE_SHIFT: u32 = 12;
    const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
    const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

    /// Sparse memory: a `HashMap` from page number to a zero-filled page,
    /// allocated on first write.
    #[derive(Default)]
    pub struct Memory {
        pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    }

    impl Memory {
        pub fn resident_pages(&self) -> usize {
            self.pages.len()
        }

        fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
            self.pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
        }

        fn read_u64(&self, addr: u64) -> u64 {
            assert!(addr.is_multiple_of(8), "misaligned read at {addr:#x}");
            let off = (addr & PAGE_MASK) as usize;
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().unwrap()),
                None => 0,
            }
        }

        fn write_u64(&mut self, addr: u64, v: u64) {
            assert!(addr.is_multiple_of(8), "misaligned write at {addr:#x}");
            let off = (addr & PAGE_MASK) as usize;
            self.page_mut(addr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }

        fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
            for (i, b) in bytes.iter().enumerate() {
                let a = addr + i as u64;
                self.page_mut(a)[(a & PAGE_MASK) as usize] = *b;
            }
        }
    }

    pub struct Cpu {
        pub pc: u32,
        pub int: [i64; 32],
        pub fp: [f64; 32],
        pub mem: Memory,
        pub halted: bool,
    }

    impl Cpu {
        pub fn new(program: &Program) -> Self {
            let mut mem = Memory::default();
            for seg in &program.data {
                mem.write_bytes(seg.addr, &seg.bytes);
            }
            Cpu {
                pc: program.entry,
                int: [0; 32],
                fp: [0.0; 32],
                mem,
                halted: false,
            }
        }

        fn ri(&self, r: Option<Reg>) -> i64 {
            match r {
                Some(Reg::Int(n)) => self.int[n as usize],
                _ => panic!("expected int register"),
            }
        }

        fn rf(&self, r: Option<Reg>) -> f64 {
            match r {
                Some(Reg::Fp(n)) => self.fp[n as usize],
                _ => panic!("expected fp register"),
            }
        }

        fn wi(&mut self, r: Option<Reg>, v: i64) {
            match r {
                Some(Reg::Int(0)) => {}
                Some(Reg::Int(n)) => self.int[n as usize] = v,
                _ => panic!("expected int register destination"),
            }
        }

        fn wf(&mut self, r: Option<Reg>, v: f64) {
            match r {
                Some(Reg::Fp(n)) => self.fp[n as usize] = v,
                _ => panic!("expected fp register destination"),
            }
        }

        /// Execute one instruction; `Ok(None)` once halted.
        pub fn step(&mut self, program: &Program) -> Result<Option<DynInsn>, EmuError> {
            if self.halted {
                return Ok(None);
            }
            let pc = self.pc;
            let insn = *program
                .insns
                .get(pc as usize)
                .ok_or(EmuError::PcOutOfRange(pc))?;
            let imm = insn.imm as i64;
            let (rd, rs1, rs2) = (insn.rd, insn.rs1, insn.rs2);
            let mut next_pc = pc + 1;
            let mut taken = false;
            let mut mem_addr = 0u64;

            use Opcode::*;
            match insn.op {
                Add => self.wi(rd, self.ri(rs1).wrapping_add(self.ri(rs2))),
                Sub => self.wi(rd, self.ri(rs1).wrapping_sub(self.ri(rs2))),
                And => self.wi(rd, self.ri(rs1) & self.ri(rs2)),
                Or => self.wi(rd, self.ri(rs1) | self.ri(rs2)),
                Xor => self.wi(rd, self.ri(rs1) ^ self.ri(rs2)),
                Sll => self.wi(rd, self.ri(rs1) << (self.ri(rs2) & 63)),
                Srl => self.wi(rd, ((self.ri(rs1) as u64) >> (self.ri(rs2) & 63)) as i64),
                Sra => self.wi(rd, self.ri(rs1) >> (self.ri(rs2) & 63)),
                Slt => self.wi(rd, (self.ri(rs1) < self.ri(rs2)) as i64),
                Sltu => self.wi(rd, ((self.ri(rs1) as u64) < (self.ri(rs2) as u64)) as i64),
                Addi => self.wi(rd, self.ri(rs1).wrapping_add(imm)),
                Andi => self.wi(rd, self.ri(rs1) & imm),
                Ori => self.wi(rd, self.ri(rs1) | imm),
                Xori => self.wi(rd, self.ri(rs1) ^ imm),
                Slli => self.wi(rd, self.ri(rs1) << (imm & 63)),
                Srli => self.wi(rd, ((self.ri(rs1) as u64) >> (imm & 63)) as i64),
                Srai => self.wi(rd, self.ri(rs1) >> (imm & 63)),
                Slti => self.wi(rd, (self.ri(rs1) < imm) as i64),
                Movi => self.wi(rd, imm),
                Mul => self.wi(rd, self.ri(rs1).wrapping_mul(self.ri(rs2))),
                Div => {
                    let d = self.ri(rs2);
                    let v = if d == 0 {
                        0
                    } else {
                        self.ri(rs1).wrapping_div(d)
                    };
                    self.wi(rd, v)
                }
                Rem => {
                    let d = self.ri(rs2);
                    let v = if d == 0 {
                        0
                    } else {
                        self.ri(rs1).wrapping_rem(d)
                    };
                    self.wi(rd, v)
                }
                Fadd => self.wf(rd, self.rf(rs1) + self.rf(rs2)),
                Fsub => self.wf(rd, self.rf(rs1) - self.rf(rs2)),
                Fmul => self.wf(rd, self.rf(rs1) * self.rf(rs2)),
                Fdiv => self.wf(rd, self.rf(rs1) / self.rf(rs2)),
                Fmin => self.wf(rd, self.rf(rs1).min(self.rf(rs2))),
                Fmax => self.wf(rd, self.rf(rs1).max(self.rf(rs2))),
                Fneg => self.wf(rd, -self.rf(rs1)),
                Fabs => self.wf(rd, self.rf(rs1).abs()),
                Fcvtif => self.wf(rd, self.ri(rs1) as f64),
                Fcvtfi => self.wi(rd, self.rf(rs1) as i64),
                Fcmplt => self.wi(rd, (self.rf(rs1) < self.rf(rs2)) as i64),
                Fcmple => self.wi(rd, (self.rf(rs1) <= self.rf(rs2)) as i64),
                Fcmpeq => self.wi(rd, (self.rf(rs1) == self.rf(rs2)) as i64),
                Fmov => self.wf(rd, self.rf(rs1)),
                Ld => {
                    mem_addr = self.ri(rs1).wrapping_add(imm) as u64;
                    self.wi(rd, self.mem.read_u64(mem_addr) as i64);
                }
                St => {
                    mem_addr = self.ri(rs1).wrapping_add(imm) as u64;
                    self.mem.write_u64(mem_addr, self.ri(rs2) as u64);
                }
                Fld => {
                    mem_addr = self.ri(rs1).wrapping_add(imm) as u64;
                    self.wf(rd, f64::from_bits(self.mem.read_u64(mem_addr)));
                }
                Fst => {
                    mem_addr = self.ri(rs1).wrapping_add(imm) as u64;
                    self.mem.write_u64(mem_addr, self.rf(rs2).to_bits());
                }
                Beq => taken = self.ri(rs1) == self.ri(rs2),
                Bne => taken = self.ri(rs1) != self.ri(rs2),
                Blt => taken = self.ri(rs1) < self.ri(rs2),
                Bge => taken = self.ri(rs1) >= self.ri(rs2),
                Jal => {
                    self.wi(rd, (pc + 1) as i64);
                    next_pc = insn.branch_target(pc);
                }
                Jalr => {
                    let base = self.ri(rs1);
                    self.wi(rd, (pc + 1) as i64);
                    next_pc = base.wrapping_add(imm) as u32;
                }
                Nop => {}
                Halt => {
                    self.halted = true;
                    next_pc = pc;
                }
            }
            if insn.op.is_cond_branch() && taken {
                next_pc = insn.branch_target(pc);
            }
            self.pc = next_pc;
            Ok(Some(DynInsn {
                insn,
                pc,
                next_pc,
                mem_addr,
            }))
        }
    }

    /// `trace_program` over the reference, plus its final state.
    pub fn run(p: &Program, budget: usize) -> (Result<Trace, TraceError>, State) {
        let mut cpu = Cpu::new(p);
        let mut insns = Vec::new();
        let mut err = None;
        while insns.len() < budget {
            match cpu.step(p) {
                Ok(Some(d)) => {
                    insns.push(d);
                    if cpu.halted {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    err = Some(TraceError::Emu(e));
                    break;
                }
            }
        }
        let state = State {
            pc: cpu.pc,
            halted: cpu.halted,
            int: cpu.int,
            fp: cpu.fp.map(f64::to_bits),
            resident_pages: cpu.mem.resident_pages(),
        };
        let trace = match err {
            Some(e) => Err(e),
            None => Ok(Trace {
                insns,
                halted: cpu.halted,
                static_insns: p.insns.len(),
            }),
        };
        (trace, state)
    }
}

/// Architectural state after a run; FP registers as bit patterns, so NaN
/// payloads and the sign of zero compare exactly.
#[derive(Debug, PartialEq)]
struct State {
    pc: u32,
    halted: bool,
    int: [i64; 32],
    fp: [u64; 32],
    resident_pages: usize,
}

/// The emulator under test, stepped the way `trace_program` steps it.
fn emulator_state(p: &Program, budget: usize) -> State {
    let mut cpu = Cpu::new(p);
    for _ in 0..budget {
        match cpu.step() {
            Ok(Some(_)) if !cpu.halted() => {}
            _ => break,
        }
    }
    State {
        pc: cpu.pc(),
        halted: cpu.halted(),
        int: std::array::from_fn(|n| cpu.int(n)),
        fp: std::array::from_fn(|n| cpu.fp(n).to_bits()),
        resident_pages: cpu.mem().resident_pages(),
    }
}

/// Both emulators agree on `p` within `budget` dynamic instructions.
fn assert_agree(p: &Program, budget: usize, what: &str) {
    let (want, want_state) = reference::run(p, budget);
    let got = trace_program(p, budget);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.insns.len(), w.insns.len(), "{what}: trace length");
            if let Some(k) = g.insns.iter().zip(&w.insns).position(|(a, b)| a != b) {
                panic!(
                    "{what}: record {k} differs: {:?} vs reference {:?}",
                    g.insns[k], w.insns[k]
                );
            }
            assert_eq!(g.halted, w.halted, "{what}: halted");
            assert_eq!(g.static_insns, w.static_insns, "{what}: static_insns");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: error"),
        _ => panic!(
            "{what}: outcome differs: {:?} vs reference {:?}",
            got.as_ref().map(|t| t.insns.len()),
            want.as_ref().map(|t| t.insns.len())
        ),
    }
    assert_eq!(emulator_state(p, budget), want_state, "{what}: final state");
}

/// SplitMix64: one seed drives a whole generated program.
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

/// Base-pointer registers: set once to 8-aligned addresses and only ever
/// moved by multiples of 8, so every load and store stays aligned.
const BASES: [u8; 4] = [20, 21, 22, 23];

/// Integer registers random instructions may write (`r0` included, so the
/// dropped write is exercised).
const INT_DESTS: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 30, 31];

/// 64-bit words that stress the corner cases: NaN, ±0.0, ±inf, `i64::MIN`
/// (with −1, the one overflowing division), and shift counts around 64.
const SPECIAL_WORDS: [u64; 14] = [
    0,
    1,
    u64::MAX, // -1
    1 << 63,  // i64::MIN and -0.0
    0x7ff8_0000_0000_0000,
    0xfff8_0000_0000_0001, // a negative NaN with a payload
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x3ff0_0000_0000_0000, // 1.0
    63,
    64,
    65,
    127,
    0x0000_0000_0000_1000,
];

const SPECIAL_IMMS: [i32; 10] = [0, 1, -1, 63, 64, 65, 127, i32::MIN, i32::MAX, 4096];

/// A random valid program: a prologue setting the base pointers, then a
/// body drawn from every opcode, with data segments that cross pages.
fn random_program(seed: u64) -> Program {
    let mut rng = Rng(seed);
    let int = |n: u8| Some(Reg::int(n));
    let fp = |n: u8| Some(Reg::fp(n));

    // Data: up to three segments, some straddling a page boundary, some
    // starting off an 8-byte boundary, with a ragged tail.
    let mut data = Vec::new();
    for s in 0..rng.below(4) {
        let page = DATA_BASE + (s * 4 + rng.below(3)) * 4096;
        let addr = page + 4096 - 8 * rng.below(8) - rng.below(2) * rng.below(8);
        let words = rng.below(600) as usize;
        let mut bytes = Vec::with_capacity(words * 8 + 8);
        for _ in 0..words {
            let w = if rng.below(2) == 0 {
                rng.pick(&SPECIAL_WORDS)
            } else {
                rng.next()
            };
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.extend((0..rng.below(8)).map(|_| rng.next() as u8));
        data.push(DataSeg { addr, bytes });
    }

    // Prologue: base pointers into the data, near a page edge, into
    // untouched memory, and at a high (sign-extended negative) address.
    let mut insns = Vec::new();
    let targets = [
        data.first().map_or(DATA_BASE, |d| d.addr & !7),
        DATA_BASE + 4096 * (1 + rng.below(8)) - 16,
        0x4000_0000 + 4096 * rng.below(1 << 10),
        (-(8 * (1 + rng.below(1 << 12)) as i64)) as u64,
    ];
    for (&b, &t) in BASES.iter().zip(&targets) {
        insns.push(Insn::new(Opcode::Movi, int(b), None, None, t as i64 as i32));
    }

    let body = 1 + rng.below(120) as usize;
    let len = insns.len() + body + 1;
    let start = insns.len();
    // A control target anywhere in the program, or rarely just past it.
    let target = |rng: &mut Rng| -> u32 {
        if rng.below(16) == 0 {
            len as u32 + rng.below(3) as u32
        } else {
            start as u32 + rng.below((len - start) as u64) as u32
        }
    };
    let imm = |rng: &mut Rng| -> i32 {
        if rng.below(3) == 0 {
            rng.pick(&SPECIAL_IMMS)
        } else {
            rng.below(2000) as i32 - 1000
        }
    };
    for _ in 0..body {
        let pc = insns.len() as i64;
        let op = rng.pick(Opcode::ALL);
        let rd = rng.pick(&INT_DESTS);
        let (a, b) = (rng.below(32) as u8, rng.below(32) as u8);
        let (fd, fa, fb) = (
            rng.below(32) as u8,
            rng.below(32) as u8,
            rng.below(32) as u8,
        );
        let base = rng.pick(&BASES);
        let off = 8 * (rng.below(1200) as i32 - 100);
        use Opcode::*;
        let insn = match op {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Mul | Div | Rem => {
                Insn::new(op, int(rd), int(a), int(b), 0)
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti => {
                Insn::new(op, int(rd), int(a), None, imm(&mut rng))
            }
            Movi => Insn::new(op, int(rd), None, None, imm(&mut rng)),
            Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => Insn::new(op, fp(fd), fp(fa), fp(fb), 0),
            Fneg | Fabs | Fmov => Insn::new(op, fp(fd), fp(fa), None, 0),
            Fcvtif => Insn::new(op, fp(fd), int(a), None, 0),
            Fcvtfi => Insn::new(op, int(rd), fp(fa), None, 0),
            Fcmplt | Fcmple | Fcmpeq => Insn::new(op, int(rd), fp(fa), fp(fb), 0),
            // Loads and stores address through a base pointer; a pointer
            // bump keeps it 8-aligned.
            Ld if rng.below(4) == 0 => Insn::new(Addi, int(base), int(base), None, off),
            Ld => Insn::new(op, int(rd), int(base), None, off),
            St => Insn::new(op, None, int(base), int(a), off),
            Fld => Insn::new(op, fp(fd), int(base), None, off),
            Fst => Insn::new(op, None, int(base), fp(fa), off),
            Beq | Bne | Blt | Bge => {
                let off = target(&mut rng) as i64 - pc - 1;
                Insn::new(op, None, int(a), int(b), off as i32)
            }
            Jal => {
                let off = target(&mut rng) as i64 - pc - 1;
                Insn::new(op, int(rd), None, None, off as i32)
            }
            // An absolute jump through r0, a return through a link
            // register, or a jump through any register (usually far out
            // of range).
            Jalr => match rng.below(3) {
                0 => Insn::new(op, int(rd), int(0), None, target(&mut rng) as i32),
                1 => Insn::new(op, int(rd), int(31), None, 0),
                _ => Insn::new(op, int(rd), int(a), None, imm(&mut rng)),
            },
            Nop | Halt => Insn { op, ..Insn::nop() },
        };
        insns.push(insn);
    }
    // Usually end in `halt`; otherwise run off the end.
    insns.push(if rng.below(4) == 0 {
        Insn::nop()
    } else {
        Insn::halt()
    });
    Program {
        insns,
        data,
        entry: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_match_the_reference(seed in any::<u64>(), budget in 1usize..3000) {
        assert_agree(&random_program(seed), budget, &format!("seed {seed:#x}"));
    }
}

/// The generator reaches every opcode, the budget cut, `halt` and a pc
/// overrun, so the property above covers the whole ISA.
#[test]
fn random_programs_cover_the_isa() {
    let mut seen = [false; 256];
    let (mut cut, mut halted, mut overran) = (false, false, false);
    for seed in 0..400u64 {
        let p = random_program(seed);
        let (trace, _) = reference::run(&p, 2000);
        match trace {
            Ok(t) => {
                for d in &t.insns {
                    seen[d.insn.op as usize] = true;
                }
                halted |= t.halted;
                cut |= !t.halted && t.insns.len() == 2000;
            }
            Err(TraceError::Emu(EmuError::PcOutOfRange(_))) => overran = true,
            Err(e) => panic!("seed {seed}: unexpected {e}"),
        }
    }
    for &op in Opcode::ALL {
        assert!(seen[op as usize], "{op:?} never executed");
    }
    assert!(
        cut && halted && overran,
        "cut {cut}, halted {halted}, overran {overran}"
    );
}

#[test]
fn suite_benchmarks_match_the_reference() {
    let len = Budget::default().trace_len() as usize;
    for name in all_bench_names() {
        let p = benchmark(name).expect("suite benchmark").build();
        assert_agree(&p, len, name);
    }
}
