//! # rcmc-asm — assembler for the RCMC mini-ISA
//!
//! [`Asm`] is a programmatic builder, used by the workload generators, the
//! examples and the tests: emit instructions through typed methods,
//! create/bind [`Label`]s, allocate initialized data, then
//! [`Asm::assemble`] into an [`rcmc_isa::Program`]. `rcmc disasm` prints a
//! built program as text.
//!
//! Link-register convention (matters to the return-address-stack model in
//! `rcmc-uarch`): `jal r31, f` is a call, `jalr r0, r31, 0` is a return.

mod builder;

pub use builder::{Asm, AsmError, Label};
