//! Programmatic program builder.

use rcmc_isa::{DataSeg, Insn, Opcode, Program, Reg, DATA_BASE};

/// A forward-referencable code position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(pub(crate) usize);

/// Assembly errors raised at [`Asm::assemble`] time.
#[derive(Clone, Debug, PartialEq)]
pub enum AsmError {
    /// A label was used but never bound.
    UnboundLabel(usize),
    /// A branch target is out of the signed-32-bit offset range.
    OffsetOverflow { pc: usize },
    /// An instruction failed ISA validation.
    Invalid {
        pc: usize,
        err: rcmc_isa::ValidationError,
    },
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label L{l} used but never bound"),
            AsmError::OffsetOverflow { pc } => write!(f, "branch offset overflow at pc {pc}"),
            AsmError::Invalid { pc, err } => write!(f, "invalid instruction at pc {pc}: {err}"),
        }
    }
}

impl std::error::Error for AsmError {}

enum Slot {
    Done(Insn),
    /// Branch/jal whose immediate is the (label, opcode, rd/rs1/rs2) to patch.
    Patch {
        insn: Insn,
        label: Label,
    },
}

/// The builder. `examples/quickstart.rs` builds a complete program.
#[derive(Default)]
pub struct Asm {
    slots: Vec<Slot>,
    labels: Vec<Option<u32>>,
    data: Vec<u8>,
    data_base: u64,
}

impl Asm {
    /// Fresh builder with the default data base address.
    pub fn new() -> Self {
        Asm {
            slots: Vec::new(),
            labels: Vec::new(),
            data: Vec::new(),
            data_base: DATA_BASE,
        }
    }

    /// Number of instructions emitted so far (== pc of the next one).
    pub fn here(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Create an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.here());
    }

    /// Create a label bound right here.
    pub fn label_here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    // ---------------- data segment ----------------

    fn align8(&mut self) {
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
    }

    /// Allocate `values` as little-endian f64 words; returns the address.
    pub fn data_f64(&mut self, values: &[f64]) -> u64 {
        self.align8();
        let addr = self.data_base + self.data.len() as u64;
        for v in values {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Allocate `values` as little-endian i64 words; returns the address.
    pub fn data_i64(&mut self, values: &[i64]) -> u64 {
        self.align8();
        let addr = self.data_base + self.data.len() as u64;
        for v in values {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Allocate `n` zero bytes (8-aligned); returns the address.
    pub fn data_zero(&mut self, n: usize) -> u64 {
        self.align8();
        let addr = self.data_base + self.data.len() as u64;
        self.data.resize(self.data.len() + n, 0);
        addr
    }

    // ---------------- raw emission ----------------

    /// Emit an already-built instruction.
    pub fn emit(&mut self, insn: Insn) {
        self.slots.push(Slot::Done(insn));
    }

    fn emit3(&mut self, op: Opcode, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Insn {
            op,
            rd: Some(rd),
            rs1: Some(rs1),
            rs2: Some(rs2),
            imm: 0,
        });
    }

    fn emit2i(&mut self, op: Opcode, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Insn {
            op,
            rd: Some(rd),
            rs1: Some(rs1),
            rs2: None,
            imm,
        });
    }

    fn emit_branch(&mut self, op: Opcode, rs1: Reg, rs2: Reg, label: Label) {
        self.slots.push(Slot::Patch {
            insn: Insn {
                op,
                rd: None,
                rs1: Some(rs1),
                rs2: Some(rs2),
                imm: 0,
            },
            label,
        });
    }

    // ---------------- integer ALU ----------------

    /// `rd = rs1 + rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Add, rd, rs1, rs2);
    }
    /// `rd = rs1 - rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Sub, rd, rs1, rs2);
    }
    /// `rd = rs1 & rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::And, rd, rs1, rs2);
    }
    /// `rd = rs1 | rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Or, rd, rs1, rs2);
    }
    /// `rd = rs1 ^ rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Xor, rd, rs1, rs2);
    }
    /// `rd = rs1 << (rs2 & 63)`
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Sll, rd, rs1, rs2);
    }
    /// `rd = (u64)rs1 >> (rs2 & 63)`
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Srl, rd, rs1, rs2);
    }
    /// `rd = rs1 >> (rs2 & 63)` (arithmetic)
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Sra, rd, rs1, rs2);
    }
    /// `rd = (rs1 < rs2) ? 1 : 0` (signed)
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Slt, rd, rs1, rs2);
    }
    /// `rd = ((u64)rs1 < (u64)rs2) ? 1 : 0`
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Sltu, rd, rs1, rs2);
    }
    /// `rd = rs1 + imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Addi, rd, rs1, imm);
    }
    /// `rd = rs1 & imm`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Andi, rd, rs1, imm);
    }
    /// `rd = rs1 | imm`
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Ori, rd, rs1, imm);
    }
    /// `rd = rs1 ^ imm`
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Xori, rd, rs1, imm);
    }
    /// `rd = rs1 << imm`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Slli, rd, rs1, imm);
    }
    /// `rd = (u64)rs1 >> imm`
    pub fn srli(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Srli, rd, rs1, imm);
    }
    /// `rd = rs1 >> imm` (arithmetic)
    pub fn srai(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Srai, rd, rs1, imm);
    }
    /// `rd = (rs1 < imm) ? 1 : 0`
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Slti, rd, rs1, imm);
    }
    /// `rd = imm` (sign-extended)
    pub fn movi(&mut self, rd: Reg, imm: i32) {
        self.emit(Insn {
            op: Opcode::Movi,
            rd: Some(rd),
            rs1: None,
            rs2: None,
            imm,
        });
    }
    /// `rd = addr` — materialize a data address (must fit in i32).
    pub fn movi_addr(&mut self, rd: Reg, addr: u64) {
        assert!(
            addr <= i32::MAX as u64,
            "data address does not fit in movi immediate"
        );
        self.movi(rd, addr as i32);
    }
    /// `rd = rs1 * rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Mul, rd, rs1, rs2);
    }
    /// `rd = rs1 / rs2` (0 when rs2 == 0)
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Div, rd, rs1, rs2);
    }
    /// `rd = rs1 % rs2` (0 when rs2 == 0)
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Rem, rd, rs1, rs2);
    }

    // ---------------- floating point ----------------

    /// `fd = fs1 + fs2`
    pub fn fadd(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fadd, rd, rs1, rs2);
    }
    /// `fd = fs1 - fs2`
    pub fn fsub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fsub, rd, rs1, rs2);
    }
    /// `fd = fs1 * fs2`
    pub fn fmul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fmul, rd, rs1, rs2);
    }
    /// `fd = fs1 / fs2`
    pub fn fdiv(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fdiv, rd, rs1, rs2);
    }
    /// `fd = min(fs1, fs2)`
    pub fn fmin(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fmin, rd, rs1, rs2);
    }
    /// `fd = max(fs1, fs2)`
    pub fn fmax(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fmax, rd, rs1, rs2);
    }
    /// `fd = -fs1`
    pub fn fneg(&mut self, rd: Reg, rs1: Reg) {
        self.emit2i(Opcode::Fneg, rd, rs1, 0);
    }
    /// `fd = |fs1|`
    pub fn fabs(&mut self, rd: Reg, rs1: Reg) {
        self.emit2i(Opcode::Fabs, rd, rs1, 0);
    }
    /// `fd = (f64) rs1`
    pub fn fcvtif(&mut self, rd: Reg, rs1: Reg) {
        self.emit2i(Opcode::Fcvtif, rd, rs1, 0);
    }
    /// `rd = (i64) fs1`
    pub fn fcvtfi(&mut self, rd: Reg, rs1: Reg) {
        self.emit2i(Opcode::Fcvtfi, rd, rs1, 0);
    }
    /// `rd = (fs1 < fs2) ? 1 : 0`
    pub fn fcmplt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fcmplt, rd, rs1, rs2);
    }
    /// `rd = (fs1 <= fs2) ? 1 : 0`
    pub fn fcmple(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fcmple, rd, rs1, rs2);
    }
    /// `rd = (fs1 == fs2) ? 1 : 0`
    pub fn fcmpeq(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit3(Opcode::Fcmpeq, rd, rs1, rs2);
    }
    /// `fd = fs1`
    pub fn fmov(&mut self, rd: Reg, rs1: Reg) {
        self.emit2i(Opcode::Fmov, rd, rs1, 0);
    }

    // ---------------- memory ----------------

    /// `rd = mem[rs1 + imm]`
    pub fn ld(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Ld, rd, rs1, imm);
    }
    /// `mem[rs1 + imm] = rs2`
    pub fn st(&mut self, rs2: Reg, rs1: Reg, imm: i32) {
        self.emit(Insn {
            op: Opcode::St,
            rd: None,
            rs1: Some(rs1),
            rs2: Some(rs2),
            imm,
        });
    }
    /// `fd = mem[rs1 + imm]`
    pub fn fld(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Fld, rd, rs1, imm);
    }
    /// `mem[rs1 + imm] = fs2`
    pub fn fst(&mut self, rs2: Reg, rs1: Reg, imm: i32) {
        self.emit(Insn {
            op: Opcode::Fst,
            rd: None,
            rs1: Some(rs1),
            rs2: Some(rs2),
            imm,
        });
    }

    // ---------------- control ----------------

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.emit_branch(Opcode::Beq, rs1, rs2, label);
    }
    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.emit_branch(Opcode::Bne, rs1, rs2, label);
    }
    /// Branch if less than (signed).
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.emit_branch(Opcode::Blt, rs1, rs2, label);
    }
    /// Branch if greater or equal (signed).
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.emit_branch(Opcode::Bge, rs1, rs2, label);
    }
    /// Direct jump with link (use `rd = r31` for calls, `r0` for plain jumps).
    pub fn jal(&mut self, rd: Reg, label: Label) {
        self.slots.push(Slot::Patch {
            insn: Insn {
                op: Opcode::Jal,
                rd: Some(rd),
                rs1: None,
                rs2: None,
                imm: 0,
            },
            label,
        });
    }
    /// Indirect jump: `pc = rs1 + imm` (use `jalr r0, r31, 0` for returns).
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit2i(Opcode::Jalr, rd, rs1, imm);
    }
    /// Call a label (shorthand for `jal r31, label`).
    pub fn call(&mut self, label: Label) {
        self.jal(Reg::int(31), label);
    }
    /// Return (shorthand for `jalr r0, r31, 0`).
    pub fn ret(&mut self) {
        self.jalr(Reg::int(0), Reg::int(31), 0);
    }
    /// No-op.
    pub fn nop(&mut self) {
        self.emit(Insn::nop());
    }
    /// Stop the program.
    pub fn halt(&mut self) {
        self.emit(Insn::halt());
    }

    /// Resolve labels and produce the final [`Program`].
    pub fn assemble(self) -> Result<Program, AsmError> {
        let mut insns = Vec::with_capacity(self.slots.len());
        for (pc, slot) in self.slots.into_iter().enumerate() {
            let insn = match slot {
                Slot::Done(i) => i,
                Slot::Patch { mut insn, label } => {
                    let target =
                        self.labels[label.0].ok_or(AsmError::UnboundLabel(label.0))? as i64;
                    // Targets are relative to the *next* instruction for both
                    // branches and jal (see Insn::branch_target).
                    let off = target - (pc as i64 + 1);
                    insn.imm = i32::try_from(off).map_err(|_| AsmError::OffsetOverflow { pc })?;
                    insn
                }
            };
            insn.validate()
                .map_err(|err| AsmError::Invalid { pc, err })?;
            insns.push(insn);
        }
        let data = if self.data.is_empty() {
            Vec::new()
        } else {
            vec![DataSeg {
                addr: self.data_base,
                bytes: self.data,
            }]
        };
        Ok(Program {
            insns,
            data,
            entry: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmc_isa::Opcode;

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }
    fn f(n: u8) -> Reg {
        Reg::fp(n)
    }

    #[test]
    fn backward_branch_offset() {
        let mut a = Asm::new();
        a.movi(r(1), 3);
        let top = a.label_here();
        a.addi(r(1), r(1), -1);
        a.bne(r(1), r(0), top);
        a.halt();
        let p = a.assemble().unwrap();
        // bne at pc 2; target 1 => imm = 1 - 3 = -2
        assert_eq!(p.insns[2].imm, -2);
        assert_eq!(p.insns[2].branch_target(2), 1);
    }

    #[test]
    fn forward_branch_offset() {
        let mut a = Asm::new();
        let end = a.new_label();
        a.beq(r(0), r(0), end);
        a.nop();
        a.nop();
        a.bind(end);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.insns[0].branch_target(0), 3);
    }

    #[test]
    fn unbound_label_fails() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.beq(r(0), r(0), l);
        assert_eq!(a.assemble(), Err(AsmError::UnboundLabel(0)));
    }

    #[test]
    fn data_is_aligned_and_addressed() {
        let mut a = Asm::new();
        let z = a.data_zero(3);
        let d = a.data_f64(&[1.5, 2.5]);
        assert_eq!(z, rcmc_isa::DATA_BASE);
        assert_eq!(d % 8, 0);
        assert_eq!(d, rcmc_isa::DATA_BASE + 8); // 3 zero bytes padded to 8
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.data.len(), 1);
        assert_eq!(&p.data[0].bytes[8..16], &1.5f64.to_le_bytes());
    }

    #[test]
    fn call_ret_convention() {
        let mut a = Asm::new();
        let func = a.new_label();
        a.call(func);
        a.halt();
        a.bind(func);
        a.ret();
        let p = a.assemble().unwrap();
        assert_eq!(p.insns[0].op, Opcode::Jal);
        assert_eq!(p.insns[0].rd, Some(r(31)));
        assert_eq!(p.insns[2].op, Opcode::Jalr);
        assert_eq!(p.insns[2].rs1, Some(r(31)));
    }

    #[test]
    fn fp_helpers_validate() {
        let mut a = Asm::new();
        a.fadd(f(1), f(2), f(3));
        a.fcvtif(f(1), r(2));
        a.fcmplt(r(1), f(2), f(3));
        a.fneg(f(4), f(5));
        a.halt();
        assert!(a.assemble().is_ok());
    }

    #[test]
    fn here_counts_instructions() {
        let mut a = Asm::new();
        assert_eq!(a.here(), 0);
        a.nop();
        a.nop();
        assert_eq!(a.here(), 2);
    }

    #[test]
    #[should_panic]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.bind(l);
        a.bind(l);
    }
}
