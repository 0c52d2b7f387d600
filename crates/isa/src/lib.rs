//! # rcmc-isa — the RCMC mini instruction set
//!
//! A compact 64-bit RISC-style instruction set used by the whole RCMC stack
//! (assembler, functional emulator, clustered out-of-order timing model).
//! The IPDPS'05 paper simulates Alpha binaries on an enhanced SimpleScalar;
//! we substitute this clean, self-contained ISA so that the entire pipeline
//! — from program text to committed instruction — is reproducible in Rust.
//!
//! Design points:
//! * 32 integer registers (`r0`..`r31`, `r0` hardwired to zero) and
//!   32 floating-point registers (`f0`..`f31`).
//! * every instruction is 8 bytes; the program counter counts instructions,
//!   the byte address of instruction `pc` is `pc * 8`.
//! * memory accesses are 8-byte, naturally aligned loads/stores; this keeps
//!   store-to-load forwarding in the LSQ model exact.
//! * branch offsets and jump targets are instruction-relative immediates.
//!
//! The [`Insn`] struct is the single in-memory representation shared by all
//! crates; [`encode()`]/[`decode()`] give the binary form and
//! `Display` gives the disassembly.

pub mod class;
pub mod encode;
pub mod insn;
pub mod opcode;
pub mod program;
pub mod reg;

pub use class::{FuKind, InsnClass};
pub use encode::{decode, encode, DecodeError};
pub use insn::{Insn, ValidationError};
pub use opcode::Opcode;
pub use program::{DataSeg, Program, DATA_BASE};
pub use reg::{Reg, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};

/// Size of one encoded instruction in bytes.
pub const INSN_BYTES: u64 = 8;
