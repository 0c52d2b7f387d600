//! Dynamic instruction stream ("oracle trace") generation.
//!
//! A [`Trace`] is stored compactly: a per-trace table of the distinct
//! static instructions it executes ([`StaticInsn`], indexed by a static
//! id) and one 8-byte [`PackedRec`] per dynamic instruction: a 31-bit
//! static id plus one 32-bit word, whose meaning the static instruction
//! fixes. A load's or store's word is its address, a conditional branch's
//! its taken bit and a `jalr`'s its target; other instructions leave it
//! zero. `next_pc` is derived: the fall-through, the `jal` or taken-branch
//! target, the `jalr` word, or the pc itself for `halt`.
//!
//! A record the word cannot reproduce exactly (an address at or past
//! 2^32, a `next_pc` its instruction would not produce, an address on a
//! non-memory instruction, as an imported trace may hold) sets the id's
//! top bit instead, and its word indexes the trace's escape table of full
//! `(next_pc, mem_addr)` pairs. [`Trace::push`] checks each record by
//! unpacking it, so packing is lossless. The emulator instead sets the
//! word as it executes an instruction, which its semantics make
//! derivable; only an address past 32 bits escapes (debug builds unpack
//! every emulated record too). Readers see the unpacked 16-byte
//! [`TraceRec`] and the 32-byte logical record, [`DynInsn`], through
//! [`Trace::recs`], [`Trace::get`] and [`Trace::iter`].
//!
//! A timing run need not hold a whole trace: a [`TraceSource`] yields the
//! same records one at a time, from the emulator stepping a program or
//! from a materialized trace replayed in order.

use rcmc_isa::{Insn, InsnClass, Opcode, Program};

use crate::cpu::{Cpu, EmuError};

/// One dynamic instruction, logical form: the static instruction plus the
/// resolved control-flow and memory facts the timing model needs. What a
/// [`Trace`] yields; traces store it split into a [`StaticInsn`] and a
/// [`PackedRec`].
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

impl StaticInsn {
    /// The `(next_pc, mem_addr)` a packed record's `word` stands for.
    #[inline]
    fn derive(&self, word: u32) -> (u32, u64) {
        let fall = self.pc.wrapping_add(1);
        match self.insn.op {
            op if op.is_mem() => (fall, word as u64),
            op if op.is_cond_branch() && word != 0 => (self.insn.branch_target(self.pc), 0),
            Opcode::Jal => (self.insn.branch_target(self.pc), 0),
            Opcode::Jalr => (word, 0),
            Opcode::Halt => (self.pc, 0),
            _ => (fall, 0),
        }
    }

    /// The word [`StaticInsn::derive`] turns back into exactly
    /// `(next_pc, mem_addr)`, if there is one.
    #[inline]
    fn pack(&self, next_pc: u32, mem_addr: u64) -> Option<u32> {
        let word = match self.insn.op {
            op if op.is_mem() => u32::try_from(mem_addr).ok()?,
            op if op.is_cond_branch() => (next_pc != self.pc.wrapping_add(1)) as u32,
            Opcode::Jalr => next_pc,
            _ => 0,
        };
        (self.derive(word) == (next_pc, mem_addr)).then_some(word)
    }
}

/// One dynamic instruction, unpacked: 16 bytes. What a [`TraceSource`]
/// yields and a core's ring holds one per slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceRec {
    /// Index of the instruction and its pc in the static table.
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

/// Top bit of a [`PackedRec`]'s id: its word indexes the escape table.
const ESCAPE: u32 = 1 << 31;

/// One dynamic instruction, packed form: 8 bytes. A materialized trace
/// holds one per traced instruction, so the record size sets its
/// footprint. Only a [`Trace`] packs one ([`Trace::push`]), and
/// [`Trace::recs`] unpacks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedRec {
    /// Static id, with [`ESCAPE`] set for an escaped record.
    tag: u32,
    /// Address, taken bit, `jalr` target, or escape index.
    word: u32,
}

/// Why a record cannot join a trace ([`Trace::push`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackError {
    /// The static id is not in the trace's static table, or needs more
    /// than 31 bits.
    BadSid(u32),
    /// The escape table already holds 2^32 entries.
    EscapesFull,
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::BadSid(sid) => write!(f, "static id {sid} is not in the table"),
            PackError::EscapesFull => write!(f, "escape table full"),
        }
    }
}

impl std::error::Error for PackError {}

/// A fully materialized dynamic trace plus a couple of whole-run facts.
///
/// Every record's static id indexes the static table. Two traces are
/// equal when they yield the same logical stream and whole-run facts,
/// however their static tables are laid out: an emulated trace numbers
/// its statics by pc, a decoded one in order of first appearance.
#[derive(Debug)]
pub struct Trace {
    /// The dynamic records in program order.
    pub insns: Vec<PackedRec>,
    /// The distinct (pc, instruction) pairs the records refer to.
    pub(crate) statics: Vec<StaticInsn>,
    /// `(next_pc, mem_addr)` of every escaped record, in push order.
    escapes: Vec<(u32, u64)>,
    /// Whether the program ran to `halt` (vs hitting the budget).
    pub halted: bool,
    /// Static instruction count of the program.
    pub static_insns: usize,
}

impl Trace {
    /// A trace of no records over `statics`, filled by [`Trace::push`].
    pub fn new(statics: Vec<StaticInsn>, halted: bool, static_insns: usize) -> Trace {
        Trace {
            insns: Vec::new(),
            statics,
            escapes: Vec::new(),
            halted,
            static_insns,
        }
    }

    /// Append `rec`, packed against its static instruction: 8 bytes, plus
    /// an escape-table entry when the packed word cannot reproduce it.
    #[inline(always)]
    pub fn push(&mut self, rec: TraceRec) -> Result<(), PackError> {
        let s = self
            .statics
            .get(rec.sid as usize)
            .filter(|_| rec.sid & ESCAPE == 0)
            .ok_or(PackError::BadSid(rec.sid))?;
        match s.pack(rec.next_pc, rec.mem_addr) {
            Some(word) => self.insns.push(PackedRec { tag: rec.sid, word }),
            None => self.push_escaped(rec)?,
        }
        Ok(())
    }

    /// Append `rec` through the escape table.
    #[cold]
    fn push_escaped(&mut self, rec: TraceRec) -> Result<(), PackError> {
        let word = u32::try_from(self.escapes.len()).map_err(|_| PackError::EscapesFull)?;
        self.escapes.push((rec.next_pc, rec.mem_addr));
        self.insns.push(PackedRec {
            tag: rec.sid | ESCAPE,
            word,
        });
        Ok(())
    }

    /// Append an emulated record, whose pc must fit a static id, with the
    /// word [`Cpu::step_packed`] set as it executed the instruction. By the
    /// emulator's semantics that word derives the record's `next_pc`, so
    /// only an address past 32 bits, which no word holds, needs the escape
    /// table: checking every record as [`Trace::push`] does costs about
    /// half again the emulation time. Debug builds check every record by
    /// unpacking it.
    #[inline(always)]
    fn push_emulated(&mut self, d: DynInsn, word: u32) -> Result<(), PackError> {
        if d.mem_addr >> 32 != 0 {
            return self.push_escaped(emulated_rec(d));
        }
        debug_assert_eq!(
            self.statics[d.pc as usize].derive(word),
            (d.next_pc, d.mem_addr)
        );
        self.insns.push(PackedRec { tag: d.pc, word });
        Ok(())
    }

    /// The record `p` packs.
    #[inline]
    fn unpack(&self, p: PackedRec) -> TraceRec {
        let sid = p.tag & !ESCAPE;
        let (next_pc, mem_addr) = if p.tag & ESCAPE == 0 {
            self.statics[sid as usize].derive(p.word)
        } else {
            self.escapes[p.word as usize]
        };
        TraceRec {
            sid,
            next_pc,
            mem_addr,
        }
    }

    /// The distinct (pc, instruction) pairs the records refer to.
    pub fn statics(&self) -> &[StaticInsn] {
        &self.statics
    }

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

    /// Records packed through the escape table.
    pub fn escapes(&self) -> usize {
        self.escapes.len()
    }

    /// The logical record of dynamic instruction `i`, if there is one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<DynInsn> {
        let p = *self.insns.get(i)?;
        Some(self.unpack(p).logical(&self.statics))
    }

    /// The unpacked records in program order.
    pub fn recs(&self) -> impl ExactSizeIterator<Item = TraceRec> + '_ {
        self.insns.iter().map(|&p| self.unpack(p))
    }

    /// The logical records in program order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DynInsn> + '_ {
        self.recs().map(|r| r.logical(&self.statics))
    }

    /// In-memory bytes of the packed records, the escape table and the
    /// static table.
    pub fn bytes(&self) -> usize {
        self.insns.len() * std::mem::size_of::<PackedRec>()
            + self.escapes.len() * std::mem::size_of::<(u32, u64)>()
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
    /// A record could not be packed into the trace.
    Pack(PackError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Emu(e) => write!(f, "emulation failed: {e}"),
            TraceError::Pack(e) => write!(f, "record does not pack: {e}"),
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

/// Step a fresh [`Cpu`] over `program`, packing each record into `insns`,
/// whose reserved capacity the caller chose.
fn trace_into(
    program: &Program,
    max_insns: usize,
    insns: Vec<PackedRec>,
) -> Result<Trace, TraceError> {
    let mut trace = Trace {
        insns,
        ..Trace::new(program_statics(program), false, program.insns.len())
    };
    if program.insns.len() > ESCAPE as usize {
        return Err(TraceError::Pack(PackError::BadSid(ESCAPE)));
    }
    let mut cpu = Cpu::new(program);
    while trace.len() < max_insns {
        let Some((d, word)) = cpu.step_packed()? else {
            break;
        };
        trace.push_emulated(d, word).map_err(TraceError::Pack)?;
        if cpu.halted() {
            break;
        }
    }
    trace.halted = cpu.halted();
    Ok(trace)
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
/// exactly the records of the trace it stands for. Build one with
/// [`TraceSource::emulate`] or [`TraceSource::replay`].
pub enum TraceSource<'t> {
    /// The emulator stepping the workload `name`, with the program as the
    /// static table.
    Emulate {
        /// The workload, named when emulation fails.
        name: String,
        /// The emulator, at the next record.
        cpu: Box<Cpu>,
        /// The program as a static table: instruction `pc` at index `pc`.
        statics: Vec<StaticInsn>,
    },
    /// A materialized trace and the index of its next record.
    Replay {
        /// The trace replayed.
        trace: &'t Trace,
        /// Index of the next record to yield.
        next: usize,
    },
}

impl<'t> TraceSource<'t> {
    /// Step the emulator over `program`, the workload `name`, until it
    /// halts: the records of [`trace_program`], with the program as the
    /// static table. Workloads are valid programs, so an emulation error
    /// panics with "`name` failed to emulate: …".
    pub fn emulate(name: &str, program: &Program) -> TraceSource<'static> {
        TraceSource::Emulate {
            name: name.to_string(),
            cpu: Box::new(Cpu::new(program)),
            statics: program_statics(program),
        }
    }

    /// Replay the records of a materialized trace, unpacked.
    pub fn replay(trace: &'t Trace) -> Self {
        TraceSource::Replay { trace, next: 0 }
    }

    /// The static table every record's `sid` indexes.
    pub fn statics(&self) -> &[StaticInsn] {
        match self {
            TraceSource::Emulate { statics, .. } => statics,
            TraceSource::Replay { trace, .. } => &trace.statics,
        }
    }
}

impl Iterator for TraceSource<'_> {
    type Item = TraceRec;

    #[inline]
    fn next(&mut self) -> Option<TraceRec> {
        match self {
            TraceSource::Emulate { name, cpu, .. } => cpu
                .step()
                .unwrap_or_else(|e| panic!("{name} failed to emulate: {}", TraceError::Emu(e)))
                .map(emulated_rec),
            TraceSource::Replay { trace, next } => {
                let p = *trace.insns.get(*next)?;
                *next += 1;
                Some(trace.unpack(p))
            }
        }
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
            assert_eq!(emulated.statics(), t.statics());
            let recs: Vec<TraceRec> = emulated.take(100).collect();
            assert!(t.recs().eq(recs.iter().copied()));
            assert!(TraceSource::replay(&t).eq(recs));
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

    /// A core's ring holds one `TraceRec` per slot.
    #[test]
    fn trace_rec_is_16_bytes() {
        assert_eq!(std::mem::size_of::<TraceRec>(), 16);
        assert_eq!(std::mem::size_of::<StaticInsn>(), 16);
    }

    /// Every byte of `PackedRec` is paid once per traced instruction: a
    /// 16-byte record would double every trace in memory, about 1.9 MB of
    /// `paper-sweep`'s peak RSS, above the benchmark's 10% `peak_rss_mb`
    /// bound.
    #[test]
    fn packed_rec_is_8_bytes() {
        assert_eq!(std::mem::size_of::<PackedRec>(), 8);
    }

    #[test]
    fn emulated_statics_are_the_program_by_pc() {
        let p = counted_loop(3);
        let t = trace_program(&p, 1000).unwrap();
        assert_eq!(t.statics().len(), p.insns.len());
        for d in t.iter() {
            assert_eq!(d.insn, p.insns[d.pc as usize]);
        }
        assert!(t.recs().all(|r| t.statics()[r.sid as usize].pc == r.sid));
        assert_eq!(t.escapes(), 0);
        assert_eq!(t.bytes(), 8 * t.len() + 16 * p.insns.len());
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
