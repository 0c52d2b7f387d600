//! Dynamic instruction stream ("oracle trace") generation.
//!
//! A [`Trace`] is stored compactly: a per-trace table of the distinct
//! static instructions it executes ([`StaticInsn`], indexed by a static
//! id) and one 16-byte [`TraceRec`] per dynamic instruction holding only
//! what varies between executions of one static instruction. Readers see
//! the 32-byte logical record, [`DynInsn`], through [`Trace::get`] and
//! [`Trace::iter`].
//!
//! A timing run need not hold a whole trace: a [`TraceSource`] yields the
//! same records one at a time, from the emulator stepping a program or
//! from a materialized trace replayed in order.

use std::borrow::Cow;

use rcmc_isa::{Insn, InsnClass, Program};

use crate::cpu::{Cpu, EmuError};

/// One dynamic instruction, logical form: the static instruction plus the
/// resolved control-flow and memory facts the timing model needs. What a
/// [`Trace`] yields; traces store it split into a [`StaticInsn`] and a
/// [`TraceRec`].
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
        self.next_pc != self.pc.wrapping_add(1)
    }
}

/// One entry of a trace's static table: an instruction and its pc.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StaticInsn {
    /// The static instruction.
    pub insn: Insn,
    /// Its pc.
    pub pc: u32,
}

/// One dynamic instruction, stored form: 16 bytes. A materialized trace
/// holds one per traced instruction and a core's ring one per slot, so
/// the record size sets both footprints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceRec {
    /// Index of the instruction and its pc in [`Trace::statics`].
    pub sid: u32,
    /// pc of the next dynamic instruction.
    pub next_pc: u32,
    /// Effective byte address for loads/stores, else 0.
    pub mem_addr: u64,
}

impl TraceRec {
    /// The logical record of this record over its trace's static table.
    #[inline]
    pub fn logical(&self, statics: &[StaticInsn]) -> DynInsn {
        let s = statics[self.sid as usize];
        DynInsn {
            insn: s.insn,
            pc: s.pc,
            next_pc: self.next_pc,
            mem_addr: self.mem_addr,
        }
    }
}

/// A fully materialized dynamic trace plus a couple of whole-run facts.
///
/// Every record's `sid` indexes `statics`. Two traces are equal when they
/// yield the same logical stream and whole-run facts, however their static
/// tables are laid out: an emulated trace numbers its statics by pc, a
/// decoded one in order of first appearance.
#[derive(Debug)]
pub struct Trace {
    /// The dynamic records in program order.
    pub insns: Vec<TraceRec>,
    /// The distinct (pc, instruction) pairs the records refer to.
    pub statics: Vec<StaticInsn>,
    /// Whether the program ran to `halt` (vs hitting the budget).
    pub halted: bool,
    /// Static instruction count of the program.
    pub static_insns: usize,
}

impl Trace {
    /// Dynamic instructions in the trace.
    #[inline]
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the trace holds no instruction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// The logical record of dynamic instruction `i`, if there is one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<DynInsn> {
        self.insns.get(i).map(|r| r.logical(&self.statics))
    }

    /// The logical records in program order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DynInsn> + '_ {
        self.insns.iter().map(|r| r.logical(&self.statics))
    }

    /// In-memory bytes of the records and the static table.
    pub fn bytes(&self) -> usize {
        self.insns.len() * std::mem::size_of::<TraceRec>()
            + self.statics.len() * std::mem::size_of::<StaticInsn>()
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.halted == other.halted
            && self.static_insns == other.static_insns
            && self.len() == other.len()
            && self.iter().eq(other.iter())
    }
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
    mut insns: Vec<TraceRec>,
) -> Result<Trace, TraceError> {
    let mut cpu = Cpu::new(program);
    while insns.len() < max_insns {
        let Some(d) = cpu.step()? else { break };
        insns.push(emulated_rec(d));
        if cpu.halted() {
            break;
        }
    }
    Ok(Trace {
        insns,
        statics: program_statics(program),
        halted: cpu.halted(),
        static_insns: program.insns.len(),
    })
}

/// An emulated trace's static table: the program itself, so a record's
/// `sid` is its pc.
fn program_statics(program: &Program) -> Vec<StaticInsn> {
    (0..)
        .zip(&program.insns)
        .map(|(pc, &insn)| StaticInsn { insn, pc })
        .collect()
}

/// The stored record of an emulated step over [`program_statics`].
fn emulated_rec(d: DynInsn) -> TraceRec {
    TraceRec {
        sid: d.pc,
        next_pc: d.next_pc,
        mem_addr: d.mem_addr,
    }
}

/// Trace records over a static table, yielded in program order: what a
/// timing run reads instead of holding a whole trace. Either form yields
/// exactly the records of the trace it stands for.
pub struct TraceSource<'t> {
    statics: Cow<'t, [StaticInsn]>,
    recs: Box<dyn Iterator<Item = TraceRec> + 't>,
}

impl<'t> TraceSource<'t> {
    /// Step the emulator over `program`, the workload `name`, until it
    /// halts: the records of [`trace_program`], with the program as the
    /// static table. Workloads are valid programs, so an emulation error
    /// panics with "`name` failed to emulate: …".
    pub fn emulate(name: &str, program: &Program) -> TraceSource<'static> {
        let (name, mut cpu) = (name.to_string(), Cpu::new(program));
        let step = move || {
            let d = cpu.step();
            d.unwrap_or_else(|e| panic!("{name} failed to emulate: {}", TraceError::Emu(e)))
                .map(emulated_rec)
        };
        TraceSource {
            statics: Cow::Owned(program_statics(program)),
            recs: Box::new(std::iter::from_fn(step)),
        }
    }

    /// Replay the records of a materialized trace.
    pub fn replay(trace: &'t Trace) -> Self {
        TraceSource {
            statics: Cow::Borrowed(&trace.statics),
            recs: Box::new(trace.insns.iter().copied()),
        }
    }

    /// The static table every record's `sid` indexes.
    pub fn statics(&self) -> &[StaticInsn] {
        &self.statics
    }
}

impl Iterator for TraceSource<'_> {
    type Item = TraceRec;

    fn next(&mut self) -> Option<TraceRec> {
        self.recs.next()
    }
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
        assert_eq!(t.len(), 1 + 10 + 1);
        assert!(t.halted);
        assert_eq!(t.get(t.len() - 1).unwrap().insn.op, Opcode::Halt);
        assert_eq!(t.get(t.len()), None);
    }

    #[test]
    fn budget_truncates() {
        let p = counted_loop(1_000_000);
        let t = trace_program(&p, 100).unwrap();
        assert_eq!(t.len(), 100);
        assert!(!t.halted);
    }

    #[test]
    fn trace_built_matches_trace_program() {
        for n in [5, 1_000_000] {
            let want = trace_program(&counted_loop(n), 100).unwrap();
            let got = trace_built(|| counted_loop(n), 100).unwrap();
            assert_eq!(got, want);
            assert_eq!(got.insns, want.insns);
        }
    }

    #[test]
    fn sources_yield_the_materialized_records() {
        for n in [5, 1_000_000] {
            let p = counted_loop(n);
            let t = trace_program(&p, 100).unwrap();
            let emulated = TraceSource::emulate("loop", &p);
            assert_eq!(emulated.statics(), &t.statics[..]);
            let recs: Vec<TraceRec> = emulated.take(100).collect();
            assert_eq!(recs, t.insns);
            assert!(TraceSource::replay(&t).eq(t.insns.iter().copied()));
        }
    }

    #[test]
    #[should_panic(expected = "bad failed to emulate: emulation failed: pc 1 out of range")]
    fn an_emulation_error_panics_with_the_workload_name() {
        let p = Program {
            insns: vec![Insn::new(Opcode::Movi, Some(Reg::int(1)), None, None, 1)],
            data: vec![],
            entry: 0,
        };
        TraceSource::emulate("bad", &p).for_each(drop);
    }

    #[test]
    fn taken_flag_consistent() {
        let p = counted_loop(3);
        let t = trace_program(&p, 1000).unwrap();
        for d in t.iter() {
            if d.insn.op.is_cond_branch() {
                let expect_taken = d.next_pc != d.pc + 1;
                assert_eq!(d.taken(), expect_taken);
                if d.taken() {
                    assert_eq!(d.next_pc, d.insn.branch_target(d.pc));
                }
            }
        }
    }

    /// Every byte of `TraceRec` is paid once per traced instruction: a
    /// 24-byte record would add half again to every trace in memory, about
    /// 2 MB of `paper-sweep`'s peak RSS, above the benchmark's 10%
    /// `peak_rss_mb` bound.
    #[test]
    fn trace_rec_is_16_bytes() {
        assert_eq!(std::mem::size_of::<TraceRec>(), 16);
        assert_eq!(std::mem::size_of::<StaticInsn>(), 16);
    }

    #[test]
    fn emulated_statics_are_the_program_by_pc() {
        let p = counted_loop(3);
        let t = trace_program(&p, 1000).unwrap();
        assert_eq!(t.statics.len(), p.insns.len());
        for d in t.iter() {
            assert_eq!(d.insn, p.insns[d.pc as usize]);
        }
        assert!(t
            .insns
            .iter()
            .all(|r| t.statics[r.sid as usize].pc == r.sid));
        assert_eq!(t.bytes(), (t.len() + p.insns.len()) * 16);
    }

    #[test]
    fn next_pcs_chain() {
        let p = counted_loop(4);
        let t = trace_program(&p, 1000).unwrap();
        let insns: Vec<DynInsn> = t.iter().collect();
        for w in insns.windows(2) {
            assert_eq!(w[0].next_pc, w[1].pc, "dynamic stream must chain");
        }
    }
}
