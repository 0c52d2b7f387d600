//! Dynamic instruction stream ("oracle trace") generation.

use rcmc_isa::{Insn, InsnClass, Program};

use crate::cpu::{Cpu, EmuError};

/// One dynamic instruction: the static instruction plus the resolved
/// control-flow and memory facts the timing model needs.
///
/// 32 bytes: the 12-byte static instruction, two 4-byte pcs, the 8-byte
/// address, and 4 bytes of padding to the address's alignment. Every
/// in-memory trace is a `Vec` of these, so the record size sets the trace
/// cache's footprint and the emulator's write bandwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynInsn {
    /// Static instruction (12 bytes).
    pub insn: Insn,
    /// pc of this instruction.
    pub pc: u32,
    /// pc of the next dynamic instruction.
    pub next_pc: u32,
    /// Effective byte address for loads/stores, else 0.
    pub mem_addr: u64,
}

impl DynInsn {
    /// Behavioural class.
    #[inline]
    pub fn class(&self) -> InsnClass {
        self.insn.class()
    }

    /// For conditional branches: was this instance taken?
    #[inline]
    pub fn taken(&self) -> bool {
        self.next_pc != self.pc + 1
    }
}

/// A fully materialized dynamic trace plus a couple of whole-run facts.
#[derive(Debug)]
pub struct Trace {
    /// The dynamic instructions in program order.
    pub insns: Vec<DynInsn>,
    /// Whether the program ran to `halt` (vs hitting the budget).
    pub halted: bool,
    /// Static instruction count of the program.
    pub static_insns: usize,
}

/// Errors producing a trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceError {
    /// The underlying emulator faulted.
    Emu(EmuError),
    /// The program halted before producing `min_insns` dynamic instructions.
    TooShort { produced: usize, wanted: usize },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Emu(e) => write!(f, "emulation failed: {e}"),
            TraceError::TooShort { produced, wanted } => {
                write!(f, "trace too short: produced {produced}, wanted {wanted}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<EmuError> for TraceError {
    fn from(e: EmuError) -> Self {
        TraceError::Emu(e)
    }
}

/// Run `program` functionally for at most `max_insns` dynamic instructions
/// and return the trace. The trace ends either at `halt` (inclusive) or at
/// the budget.
pub fn trace_program(program: &Program, max_insns: usize) -> Result<Trace, TraceError> {
    trace_into(
        program,
        max_insns,
        Vec::with_capacity(max_insns.min(1 << 22)),
    )
}

/// [`trace_program`] over the program `build` returns, with the trace's
/// buffer reserved before the program is built. A process that drops one
/// trace and emulates the next then reuses the freed buffer whole: built
/// first, the program's allocations would split it, and the heap would
/// grow by another trace.
pub fn trace_built(build: impl FnOnce() -> Program, max_insns: usize) -> Result<Trace, TraceError> {
    let insns = Vec::with_capacity(max_insns.min(1 << 22));
    trace_into(&build(), max_insns, insns)
}

/// Step a fresh [`Cpu`] over `program`, pushing each record into `insns`,
/// whose reserved capacity the caller chose.
fn trace_into(
    program: &Program,
    max_insns: usize,
    mut insns: Vec<DynInsn>,
) -> Result<Trace, TraceError> {
    let mut cpu = Cpu::new(program);
    while insns.len() < max_insns {
        let Some(d) = cpu.step()? else { break };
        insns.push(d);
        if cpu.halted() {
            break;
        }
    }
    Ok(Trace {
        insns,
        halted: cpu.halted(),
        static_insns: program.insns.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmc_isa::{Opcode, Reg};

    fn counted_loop(n: i32) -> Program {
        let r = |x| Some(Reg::int(x));
        Program {
            insns: vec![
                Insn::new(Opcode::Movi, r(1), None, None, n),
                // loop:
                Insn::new(Opcode::Addi, r(1), r(1), None, -1),
                Insn::new(Opcode::Bne, None, r(1), r(0), -2),
                Insn::halt(),
            ],
            data: vec![],
            entry: 0,
        }
    }

    #[test]
    fn trace_has_expected_length_and_end() {
        let p = counted_loop(5);
        let t = trace_program(&p, 1000).unwrap();
        // movi + 5*(addi,bne) + halt
        assert_eq!(t.insns.len(), 1 + 10 + 1);
        assert!(t.halted);
        assert_eq!(t.insns.last().unwrap().insn.op, Opcode::Halt);
    }

    #[test]
    fn budget_truncates() {
        let p = counted_loop(1_000_000);
        let t = trace_program(&p, 100).unwrap();
        assert_eq!(t.insns.len(), 100);
        assert!(!t.halted);
    }

    #[test]
    fn trace_built_matches_trace_program() {
        for n in [5, 1_000_000] {
            let want = trace_program(&counted_loop(n), 100).unwrap();
            let got = trace_built(|| counted_loop(n), 100).unwrap();
            assert_eq!(got.insns, want.insns);
            assert_eq!(got.halted, want.halted);
        }
    }

    #[test]
    fn taken_flag_consistent() {
        let p = counted_loop(3);
        let t = trace_program(&p, 1000).unwrap();
        for d in &t.insns {
            if d.insn.op.is_cond_branch() {
                let expect_taken = d.next_pc != d.pc + 1;
                assert_eq!(d.taken(), expect_taken);
                if d.taken() {
                    assert_eq!(d.next_pc, d.insn.branch_target(d.pc));
                }
            }
        }
    }

    /// Every byte of `DynInsn` is paid once per traced instruction: a
    /// 40-byte record would add 25% to every trace in memory, about 2 MB
    /// of `paper-sweep`'s peak RSS, above the benchmark's 10%
    /// `peak_rss_mb` bound (about 1.3 MB).
    #[test]
    fn dyninsn_is_compact() {
        assert!(
            std::mem::size_of::<DynInsn>() <= 32,
            "DynInsn grew: {}",
            std::mem::size_of::<DynInsn>()
        );
    }

    #[test]
    fn next_pcs_chain() {
        let p = counted_loop(4);
        let t = trace_program(&p, 1000).unwrap();
        for w in t.insns.windows(2) {
            assert_eq!(w[0].next_pc, w[1].pc, "dynamic stream must chain");
        }
    }
}
