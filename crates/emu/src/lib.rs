//! # rcmc-emu — functional emulator and oracle-trace generation
//!
//! Executes [`rcmc_isa::Program`]s at the architectural level and records the
//! **dynamic instruction stream** (one [`DynInsn`] per executed instruction,
//! with resolved branch outcomes and effective memory addresses), stored
//! as a [`Trace`]: 8-byte [`PackedRec`]s over a table of the program's
//! [`StaticInsn`]s, or yielded record by record, as 16-byte [`TraceRec`]s,
//! by a [`TraceSource`] (the emulator, or a stored trace file decoded by
//! a [`TraceStream`] as it is read). The
//! clustered timing model in `rcmc-core` replays this stream: an
//! *execution-driven, stall-on-mispredict* simulation style in which the
//! timing model never fabricates wrong-path work but still pays realistic
//! branch-resolution delays.
//!
//! The emulator is deliberately strict: invalid instructions, misaligned
//! 8-byte accesses and pc overruns are [`EmuError`]s, because the workload
//! generators guarantee valid aligned code and the timing model's
//! store-to-load forwarding relies on alignment.

mod cpu;
mod mem;
mod trace;
pub mod trace_db;

pub use cpu::{Cpu, EmuError};
pub use mem::Memory;
pub use trace::{
    trace_built, trace_program, DynInsn, PackError, PackedRec, StaticInsn, Trace, TraceError,
    TraceRec, TraceSource,
};
pub use trace_db::{OpenTrace, TraceDb, TraceDbError, TraceMeta, TraceStream, TRACE_VERSION};
