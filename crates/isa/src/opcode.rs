//! Opcode enumeration and metadata.

use std::fmt;

/// Every operation in the RCMC mini-ISA.
///
/// The numeric discriminants are the binary encoding's opcode byte and are
/// stable: changing them invalidates encoded programs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Opcode {
    // ---- integer ALU, register forms ----
    Add = 0,
    Sub = 1,
    And = 2,
    Or = 3,
    Xor = 4,
    Sll = 5,
    Srl = 6,
    Sra = 7,
    Slt = 8,
    Sltu = 9,
    // ---- integer ALU, immediate forms ----
    Addi = 10,
    Andi = 11,
    Ori = 12,
    Xori = 13,
    Slli = 14,
    Srli = 15,
    Srai = 16,
    Slti = 17,
    /// `rd = imm` (sign-extended 32-bit immediate).
    Movi = 18,
    // ---- integer multiply / divide ----
    Mul = 20,
    Div = 21,
    Rem = 22,
    // ---- floating point ----
    Fadd = 30,
    Fsub = 31,
    Fmul = 32,
    Fdiv = 33,
    Fmin = 34,
    Fmax = 35,
    Fneg = 36,
    Fabs = 37,
    /// `fd = (f64) rs1` — integer to FP conversion.
    Fcvtif = 38,
    /// `rd = (i64) fs1` — FP to integer conversion (truncating).
    Fcvtfi = 39,
    /// `rd = (fs1 < fs2) ? 1 : 0`.
    Fcmplt = 40,
    /// `rd = (fs1 <= fs2) ? 1 : 0`.
    Fcmple = 41,
    /// `rd = (fs1 == fs2) ? 1 : 0`.
    Fcmpeq = 42,
    /// `fd = fs1`.
    Fmov = 43,
    // ---- memory (8-byte, aligned) ----
    /// `rd = mem[rs1 + imm]`.
    Ld = 50,
    /// `mem[rs1 + imm] = rs2`.
    St = 51,
    /// `fd = mem[rs1 + imm]`.
    Fld = 52,
    /// `mem[rs1 + imm] = fs2`.
    Fst = 53,
    // ---- control ----
    Beq = 60,
    Bne = 61,
    Blt = 62,
    Bge = 63,
    /// `rd = pc + 1; pc += imm` — direct call/jump (link optional via rd=r0).
    Jal = 64,
    /// `rd = pc + 1; pc = rs1 + imm` — indirect jump / return.
    Jalr = 65,
    // ---- misc ----
    Nop = 70,
    /// Stop the program.
    Halt = 71,
}

impl Opcode {
    /// All opcodes, in encoding order. Useful for exhaustive tests.
    pub const ALL: &'static [Opcode] = &[
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Sra,
        Opcode::Slt,
        Opcode::Sltu,
        Opcode::Addi,
        Opcode::Andi,
        Opcode::Ori,
        Opcode::Xori,
        Opcode::Slli,
        Opcode::Srli,
        Opcode::Srai,
        Opcode::Slti,
        Opcode::Movi,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Rem,
        Opcode::Fadd,
        Opcode::Fsub,
        Opcode::Fmul,
        Opcode::Fdiv,
        Opcode::Fmin,
        Opcode::Fmax,
        Opcode::Fneg,
        Opcode::Fabs,
        Opcode::Fcvtif,
        Opcode::Fcvtfi,
        Opcode::Fcmplt,
        Opcode::Fcmple,
        Opcode::Fcmpeq,
        Opcode::Fmov,
        Opcode::Ld,
        Opcode::St,
        Opcode::Fld,
        Opcode::Fst,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Blt,
        Opcode::Bge,
        Opcode::Jal,
        Opcode::Jalr,
        Opcode::Nop,
        Opcode::Halt,
    ];

    /// The mnemonic disassembly (`rcmc disasm`) prints.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Sll => "sll",
            Opcode::Srl => "srl",
            Opcode::Sra => "sra",
            Opcode::Slt => "slt",
            Opcode::Sltu => "sltu",
            Opcode::Addi => "addi",
            Opcode::Andi => "andi",
            Opcode::Ori => "ori",
            Opcode::Xori => "xori",
            Opcode::Slli => "slli",
            Opcode::Srli => "srli",
            Opcode::Srai => "srai",
            Opcode::Slti => "slti",
            Opcode::Movi => "movi",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Rem => "rem",
            Opcode::Fadd => "fadd",
            Opcode::Fsub => "fsub",
            Opcode::Fmul => "fmul",
            Opcode::Fdiv => "fdiv",
            Opcode::Fmin => "fmin",
            Opcode::Fmax => "fmax",
            Opcode::Fneg => "fneg",
            Opcode::Fabs => "fabs",
            Opcode::Fcvtif => "fcvtif",
            Opcode::Fcvtfi => "fcvtfi",
            Opcode::Fcmplt => "fcmplt",
            Opcode::Fcmple => "fcmple",
            Opcode::Fcmpeq => "fcmpeq",
            Opcode::Fmov => "fmov",
            Opcode::Ld => "ld",
            Opcode::St => "st",
            Opcode::Fld => "fld",
            Opcode::Fst => "fst",
            Opcode::Beq => "beq",
            Opcode::Bne => "bne",
            Opcode::Blt => "blt",
            Opcode::Bge => "bge",
            Opcode::Jal => "jal",
            Opcode::Jalr => "jalr",
            Opcode::Nop => "nop",
            Opcode::Halt => "halt",
        }
    }

    /// Decode the opcode byte of the binary encoding.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|op| *op as u8 == b)
    }

    /// True for conditional branches (`beq`/`bne`/`blt`/`bge`).
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge)
    }

    /// True for any control transfer (branch or jump).
    #[inline]
    pub fn is_control(self) -> bool {
        self.is_cond_branch() || matches!(self, Opcode::Jal | Opcode::Jalr)
    }

    /// True for memory operations.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, Opcode::Ld | Opcode::St | Opcode::Fld | Opcode::Fst)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Disassembly (`rcmc disasm`) names each opcode unambiguously: the
    /// mnemonics are distinct, so each maps back to the one opcode that
    /// printed it.
    #[test]
    fn mnemonic_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic for {op:?}");
        }
    }

    #[test]
    fn byte_roundtrip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
    }

    #[test]
    fn unknown_byte_rejected() {
        assert_eq!(Opcode::from_u8(255), None);
        assert_eq!(Opcode::from_u8(19), None);
    }

    #[test]
    fn discriminants_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op as u8), "duplicate discriminant for {op:?}");
        }
        assert_eq!(seen.len(), Opcode::ALL.len());
    }

    #[test]
    fn classification_predicates() {
        assert!(Opcode::Beq.is_cond_branch());
        assert!(!Opcode::Jal.is_cond_branch());
        assert!(Opcode::Jal.is_control());
        assert!(Opcode::Jalr.is_control());
        assert!(Opcode::Fld.is_mem());
        assert!(!Opcode::Fadd.is_mem());
    }
}
