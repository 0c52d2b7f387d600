//! # ring-clustered — facade crate
//!
//! Re-exports the whole RCMC stack behind one dependency, so examples,
//! integration tests and downstream users can write `use ring_clustered::…`.
//!
//! The stack reproduces *"Inherently Workload-Balanced Clustered
//! Microarchitecture"* (Abella & González, IPDPS 2005): a clustered
//! out-of-order processor whose clusters form a unidirectional ring in which
//! each cluster's bypass network feeds the *next* cluster, making
//! dependence-based steering inherently workload-balanced.
//!
//! Layer map (bottom → top):
//!
//! * [`isa`] — the mini instruction set (encoding, classes, registers).
//! * [`asm`] — assembler: the programmatic `Asm` builder.
//! * [`emu`] — functional emulator producing oracle traces.
//! * [`uarch`] — branch predictors, BTB/RAS, cache hierarchy.
//! * [`core`] — the clustered back end: ring/conventional topologies,
//!   steering algorithms, bus fabric, rename/issue/commit.
//! * [`workloads`] — SPEC2000 surrogate kernel generators.
//! * [`layout`] — §3.2 area/floorplan model.
//! * [`sim`] — configuration presets (Tables 2–3) and the experiment API:
//!   declarative `Plan`s executed by a `Session` into typed `ResultSet`s,
//!   plus the `rcmc serve` request loop.

pub use rcmc_asm as asm;
pub use rcmc_core as core;
pub use rcmc_emu as emu;
pub use rcmc_isa as isa;
pub use rcmc_layout as layout;
pub use rcmc_sim as sim;
pub use rcmc_uarch as uarch;
pub use rcmc_workloads as workloads;
