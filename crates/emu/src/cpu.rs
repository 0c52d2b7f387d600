//! The interpreter: architectural state and single-step semantics.
//!
//! [`Cpu::new`] predecodes the program once. Each instruction becomes a
//! `Decoded`: the original [`Insn`] (what the trace records), its
//! operands as indices into one 64-entry register file (integer registers
//! at `0..32`, FP registers as bit patterns at `32..64`, the unified
//! numbering of [`Reg::unified`]), the precomputed branch target, and
//! whether it passed [`Insn::validate`]. [`Cpu::step`] is the only way to
//! execute: it reads both source operands, computes one result and writes
//! it to the destination index. An absent destination is index 0 (`r0`),
//! and `r0` is zeroed after every step, so writes to it are dropped.
//!
//! A malformed program is an error, not a panic: execution that reaches an
//! instruction failing validation returns [`EmuError::InvalidInsn`], and a
//! misaligned load or store returns [`EmuError::Misaligned`].

use rcmc_isa::{Insn, Opcode, Program, Reg, NUM_ARCH_REGS, NUM_INT_REGS};

use crate::mem::Memory;
use crate::trace::DynInsn;

/// One predecoded instruction.
#[derive(Clone, Copy)]
struct Decoded {
    insn: Insn,
    /// Unified register indices; 0 for an absent operand.
    rd: u8,
    rs1: u8,
    rs2: u8,
    /// Passed [`Insn::validate`], with every register number in range.
    valid: bool,
    /// Taken target of a conditional branch or `jal`.
    target: u32,
}

impl Decoded {
    fn new(pc: usize, insn: Insn) -> Self {
        let regs = [insn.rd, insn.rs1, insn.rs2];
        // Both banks hold `NUM_INT_REGS` registers.
        let valid = insn.validate().is_ok()
            && regs
                .iter()
                .flatten()
                .all(|r| (r.number() as usize) < NUM_INT_REGS);
        let index = |r: Option<Reg>| match r {
            Some(r) if valid => r.unified() as u8,
            _ => 0,
        };
        Decoded {
            insn,
            rd: index(insn.rd),
            rs1: index(insn.rs1),
            rs2: index(insn.rs2),
            valid,
            target: (pc as i64 + 1 + insn.imm as i64) as u32,
        }
    }
}

/// Architectural CPU state over a predecoded program.
pub struct Cpu {
    code: Vec<Decoded>,
    /// Program counter, indexing `Program::insns`.
    pc: u32,
    /// Unified register file: `r0..r31` then the bits of `f0..f31`.
    regs: [u64; NUM_ARCH_REGS],
    mem: Memory,
    /// Set once a `halt` retires.
    halted: bool,
}

/// Errors the emulator can raise (all indicate a malformed program).
#[derive(Clone, Debug, PartialEq)]
pub enum EmuError {
    /// pc ran past the end of the program without hitting `halt`.
    PcOutOfRange(u32),
    /// Execution reached an instruction that fails validation.
    InvalidInsn { pc: u32 },
    /// Execution reached a load or store to an address that is not a
    /// multiple of 8.
    Misaligned { pc: u32, addr: u64 },
}

impl std::fmt::Display for EmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmuError::PcOutOfRange(pc) => write!(f, "pc {pc} out of range"),
            EmuError::InvalidInsn { pc } => write!(f, "invalid instruction at pc {pc}"),
            EmuError::Misaligned { pc, addr } => {
                write!(f, "misaligned 8-byte access to {addr:#x} at pc {pc}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

impl Cpu {
    /// Fresh CPU with the program predecoded, its data segments loaded and
    /// pc at the entry.
    pub fn new(program: &Program) -> Self {
        let mut mem = Memory::new();
        for seg in &program.data {
            mem.write_bytes(seg.addr, &seg.bytes);
        }
        Cpu {
            code: program
                .insns
                .iter()
                .enumerate()
                .map(|(pc, &insn)| Decoded::new(pc, insn))
                .collect(),
            pc: program.entry,
            regs: [0; NUM_ARCH_REGS],
            mem,
            halted: false,
        }
    }

    /// Program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether a `halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Integer register `r{n}`.
    pub fn int(&self, n: usize) -> i64 {
        self.regs[..NUM_INT_REGS][n] as i64
    }

    /// FP register `f{n}`.
    pub fn fp(&self, n: usize) -> f64 {
        f64::from_bits(self.regs[NUM_INT_REGS..][n])
    }

    /// Memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Effective address of a load or store, checked for alignment.
    #[inline]
    fn addr(pc: u32, base: i64, imm: i64) -> Result<u64, EmuError> {
        let addr = base.wrapping_add(imm) as u64;
        if addr.is_multiple_of(8) {
            Ok(addr)
        } else {
            Err(EmuError::Misaligned { pc, addr })
        }
    }

    /// Execute one instruction and return its trace record, or `Ok(None)`
    /// if already halted. On an error the state is left as it was.
    ///
    /// Always inlined: with two stepping loops in this crate (a
    /// materialized trace's and [`crate::TraceSource::emulate`]'s), a hint
    /// leaves it out of line, and emulation runs ~3× slower.
    #[inline(always)]
    pub fn step(&mut self) -> Result<Option<DynInsn>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let d = *self
            .code
            .get(pc as usize)
            .ok_or(EmuError::PcOutOfRange(pc))?;
        if !d.valid {
            return Err(EmuError::InvalidInsn { pc });
        }
        // Masking keeps indexing check-free; predecode bounds every index.
        const MASK: usize = NUM_ARCH_REGS - 1;
        let a = self.regs[d.rs1 as usize & MASK];
        let b = self.regs[d.rs2 as usize & MASK];
        let (ai, bi) = (a as i64, b as i64);
        let (af, bf) = (f64::from_bits(a), f64::from_bits(b));
        let imm = d.insn.imm as i64;
        let mut next_pc = pc + 1;
        let mut mem_addr = 0u64;

        use Opcode::*;
        let v: u64 = match d.insn.op {
            Add => ai.wrapping_add(bi) as u64,
            Sub => ai.wrapping_sub(bi) as u64,
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Sll => (ai << (bi & 63)) as u64,
            Srl => a >> (bi & 63),
            Sra => (ai >> (bi & 63)) as u64,
            Slt => (ai < bi) as u64,
            Sltu => (a < b) as u64,
            Addi => ai.wrapping_add(imm) as u64,
            Andi => (ai & imm) as u64,
            Ori => (ai | imm) as u64,
            Xori => (ai ^ imm) as u64,
            Slli => (ai << (imm & 63)) as u64,
            Srli => a >> (imm & 63),
            Srai => (ai >> (imm & 63)) as u64,
            Slti => (ai < imm) as u64,
            Movi => imm as u64,
            Mul => ai.wrapping_mul(bi) as u64,
            Div if bi == 0 => 0,
            Div => ai.wrapping_div(bi) as u64,
            Rem if bi == 0 => 0,
            Rem => ai.wrapping_rem(bi) as u64,
            Fadd => (af + bf).to_bits(),
            Fsub => (af - bf).to_bits(),
            Fmul => (af * bf).to_bits(),
            Fdiv => (af / bf).to_bits(),
            Fmin => af.min(bf).to_bits(),
            Fmax => af.max(bf).to_bits(),
            Fneg => (-af).to_bits(),
            Fabs => af.abs().to_bits(),
            Fcvtif => (ai as f64).to_bits(),
            Fcvtfi => af as i64 as u64,
            Fcmplt => (af < bf) as u64,
            Fcmple => (af <= bf) as u64,
            Fcmpeq => (af == bf) as u64,
            Fmov => a,
            Ld | Fld => {
                mem_addr = Self::addr(pc, ai, imm)?;
                self.mem.read_u64(mem_addr)
            }
            St | Fst => {
                mem_addr = Self::addr(pc, ai, imm)?;
                self.mem.write_u64(mem_addr, b);
                0
            }
            Beq | Bne | Blt | Bge => {
                let taken = match d.insn.op {
                    Beq => ai == bi,
                    Bne => ai != bi,
                    Blt => ai < bi,
                    _ => ai >= bi,
                };
                if taken {
                    next_pc = d.target;
                }
                0
            }
            Jal => {
                next_pc = d.target;
                (pc + 1) as u64
            }
            Jalr => {
                next_pc = ai.wrapping_add(imm) as u32;
                (pc + 1) as u64
            }
            Nop => 0,
            Halt => {
                self.halted = true;
                next_pc = pc; // frozen
                0
            }
        };
        self.regs[d.rd as usize & MASK] = v;
        self.regs[0] = 0;
        self.pc = next_pc;
        Ok(Some(DynInsn {
            insn: d.insn,
            pc,
            next_pc,
            mem_addr,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{trace_program, TraceError};

    fn run(src_insns: Vec<Insn>) -> Cpu {
        let p = Program {
            insns: src_insns,
            data: vec![],
            entry: 0,
        };
        let mut cpu = Cpu::new(&p);
        for _ in 0..10_000 {
            if cpu.step().unwrap().is_none() {
                break;
            }
        }
        cpu
    }

    fn mk(op: Opcode, rd: Option<Reg>, rs1: Option<Reg>, rs2: Option<Reg>, imm: i32) -> Insn {
        Insn::new(op, rd, rs1, rs2, imm)
    }

    #[test]
    fn arithmetic_basics() {
        let r = |n| Some(Reg::int(n));
        let cpu = run(vec![
            mk(Opcode::Movi, r(1), None, None, 6),
            mk(Opcode::Movi, r(2), None, None, 7),
            mk(Opcode::Mul, r(3), r(1), r(2), 0),
            mk(Opcode::Sub, r(4), r(3), r(1), 0),
            mk(Opcode::Div, r(5), r(3), r(2), 0),
            Insn::halt(),
        ]);
        assert_eq!(cpu.int(3), 42);
        assert_eq!(cpu.int(4), 36);
        assert_eq!(cpu.int(5), 6);
    }

    #[test]
    fn zero_register_is_immutable() {
        let r = |n| Some(Reg::int(n));
        let cpu = run(vec![mk(Opcode::Movi, r(0), None, None, 99), Insn::halt()]);
        assert_eq!(cpu.int(0), 0);
    }

    #[test]
    fn div_by_zero_yields_zero() {
        let r = |n| Some(Reg::int(n));
        let cpu = run(vec![
            mk(Opcode::Movi, r(1), None, None, 10),
            mk(Opcode::Div, r(2), r(1), r(0), 0),
            mk(Opcode::Rem, r(3), r(1), r(0), 0),
            Insn::halt(),
        ]);
        assert_eq!(cpu.int(2), 0);
        assert_eq!(cpu.int(3), 0);
    }

    #[test]
    fn loop_with_branch() {
        // sum 1..=5 via blt loop
        let r = |n| Some(Reg::int(n));
        let cpu = run(vec![
            mk(Opcode::Movi, r(1), None, None, 0), // i
            mk(Opcode::Movi, r(2), None, None, 0), // sum
            mk(Opcode::Movi, r(3), None, None, 5), // n
            // loop:
            mk(Opcode::Addi, r(1), r(1), None, 1),
            mk(Opcode::Add, r(2), r(2), r(1), 0),
            mk(Opcode::Blt, None, r(1), r(3), -3), // back to pc 3
            Insn::halt(),
        ]);
        assert_eq!(cpu.int(2), 15);
    }

    #[test]
    fn memory_and_fp() {
        let r = |n| Some(Reg::int(n));
        let f = |n| Some(Reg::fp(n));
        let p = Program {
            insns: vec![
                mk(Opcode::Movi, r(1), None, None, 0x1000),
                mk(Opcode::Movi, r(2), None, None, 21),
                mk(Opcode::St, None, r(1), r(2), 0),
                mk(Opcode::Ld, r(3), r(1), None, 0),
                mk(Opcode::Fcvtif, f(1), r(3), None, 0),
                mk(Opcode::Fadd, f(2), f(1), f(1), 0),
                mk(Opcode::Fst, None, r(1), f(2), 8),
                mk(Opcode::Fld, f(3), r(1), None, 8),
                mk(Opcode::Fcvtfi, r(4), f(3), None, 0),
                Insn::halt(),
            ],
            data: vec![],
            entry: 0,
        };
        let mut cpu = Cpu::new(&p);
        while cpu.step().unwrap().is_some() {}
        assert_eq!(cpu.int(3), 21);
        assert_eq!(cpu.int(4), 42);
        assert_eq!(f64::from_bits(cpu.mem().read_u64(0x1008)), 42.0);
    }

    #[test]
    fn call_and_return() {
        let r = |n| Some(Reg::int(n));
        // main: jal r31, func(+2); halt; func: movi r5, 9; jalr r0, r31, 0
        let cpu = run(vec![
            mk(Opcode::Jal, r(31), None, None, 1), // target = 0+1+1 = 2
            Insn::halt(),
            mk(Opcode::Movi, r(5), None, None, 9),
            mk(Opcode::Jalr, r(0), r(31), None, 0),
        ]);
        assert_eq!(cpu.int(5), 9);
        assert!(cpu.halted());
    }

    #[test]
    fn step_records_branch_and_mem_info() {
        let r = |n| Some(Reg::int(n));
        let p = Program {
            insns: vec![
                mk(Opcode::Movi, r(1), None, None, 0x2000),
                mk(Opcode::Ld, r(2), r(1), None, 16),
                mk(Opcode::Beq, None, r(2), r(0), 1), // taken (mem reads 0)
                Insn::nop(),
                Insn::halt(),
            ],
            data: vec![],
            entry: 0,
        };
        let mut cpu = Cpu::new(&p);
        cpu.step().unwrap();
        let ld = cpu.step().unwrap().unwrap();
        assert_eq!(ld.mem_addr, 0x2010);
        let br = cpu.step().unwrap().unwrap();
        assert!(br.taken());
        assert_eq!(br.next_pc, 4);
    }

    #[test]
    fn pc_out_of_range_detected() {
        let p = Program {
            insns: vec![Insn::nop()],
            data: vec![],
            entry: 0,
        };
        let mut cpu = Cpu::new(&p);
        cpu.step().unwrap();
        assert_eq!(cpu.step(), Err(EmuError::PcOutOfRange(1)));
    }

    #[test]
    fn halted_cpu_stays_halted() {
        let p = Program {
            insns: vec![Insn::halt()],
            data: vec![],
            entry: 0,
        };
        let mut cpu = Cpu::new(&p);
        assert!(cpu.step().unwrap().is_some());
        assert_eq!(cpu.step().unwrap(), None);
        assert_eq!(cpu.step().unwrap(), None);
    }

    /// Runs `insns` through `trace_program` and returns its error.
    fn trace_err(insns: Vec<Insn>) -> TraceError {
        let p = Program {
            insns,
            data: vec![],
            entry: 0,
        };
        trace_program(&p, 100).expect_err("malformed program")
    }

    #[test]
    fn invalid_insn_is_an_error_not_a_panic() {
        let r = |n| Some(Reg::int(n));
        let f = |n| Some(Reg::fp(n));
        let bad = [
            // An FP source where `add` takes an integer one.
            Insn {
                op: Opcode::Add,
                rd: r(1),
                rs1: f(2),
                rs2: r(3),
                imm: 0,
            },
            // An integer destination for `fadd`.
            Insn {
                op: Opcode::Fadd,
                rd: r(1),
                rs1: f(1),
                rs2: f(2),
                imm: 0,
            },
            // A load without its base register.
            Insn {
                op: Opcode::Ld,
                rd: r(1),
                rs1: None,
                rs2: None,
                imm: 0,
            },
            // A register number past the bank.
            Insn {
                op: Opcode::Movi,
                rd: Some(Reg::Int(40)),
                rs1: None,
                rs2: None,
                imm: 1,
            },
        ];
        for insn in bad {
            let got = trace_err(vec![Insn::nop(), insn, Insn::halt()]);
            assert_eq!(
                got,
                TraceError::Emu(EmuError::InvalidInsn { pc: 1 }),
                "{insn:?}"
            );
        }
        // An invalid instruction that execution never reaches is harmless.
        let p = Program {
            insns: vec![Insn::halt(), bad[0]],
            data: vec![],
            entry: 0,
        };
        assert!(trace_program(&p, 100).unwrap().halted);
    }

    #[test]
    fn misaligned_access_is_an_error_not_a_panic() {
        let r = |n| Some(Reg::int(n));
        let f = |n| Some(Reg::fp(n));
        let set = Insn::new(Opcode::Movi, r(1), None, None, 0x1000);
        for (insn, addr) in [
            (Insn::new(Opcode::Ld, r(2), r(1), None, 4), 0x1004),
            (Insn::new(Opcode::St, None, r(1), r(2), 1), 0x1001),
            (Insn::new(Opcode::Fld, f(2), r(1), None, -2), 0xffe),
            (Insn::new(Opcode::Fst, None, r(1), f(2), 7), 0x1007),
        ] {
            let got = trace_err(vec![set, insn, Insn::halt()]);
            assert_eq!(
                got,
                TraceError::Emu(EmuError::Misaligned { pc: 1, addr }),
                "{insn:?}"
            );
        }
    }
}
