//! Workload characterization: the instruction-mix and locality statistics
//! papers tabulate when introducing a benchmark suite.
//!
//! [`characterize`] folds a stream of dynamic instructions in one pass,
//! so [`suite_table`] steps each benchmark's emulator straight into it and
//! holds no trace.

use std::collections::HashMap;

use rcmc_emu::{Cpu, DynInsn};
use rcmc_isa::InsnClass;

/// Dynamic characterization of one trace window.
#[derive(Clone, Debug, PartialEq)]
pub struct MixReport {
    /// Window length in instructions.
    pub insns: usize,
    /// Fraction of integer ALU/mul/div operations.
    pub int_ops: f64,
    /// Fraction of FP operations.
    pub fp_ops: f64,
    /// Fraction of loads.
    pub loads: f64,
    /// Fraction of stores.
    pub stores: f64,
    /// Fraction of conditional branches.
    pub branches: f64,
    /// Fraction of taken conditional branches (of all branches).
    pub taken_rate: f64,
    /// Mean register dependence distance (instructions between producer and
    /// consumer), capped at 256 — short distances mean tight chains.
    pub mean_dep_distance: f64,
    /// Distinct 4 KiB data pages touched.
    pub data_pages: usize,
    /// Distinct static instructions executed (I-footprint in instructions).
    pub static_insns: usize,
}

/// Characterize a dynamic window, folding its instructions in order.
pub fn characterize(window: impl IntoIterator<Item = DynInsn>) -> MixReport {
    let mut insns = 0usize;
    let mut int_ops = 0usize;
    let mut fp_ops = 0usize;
    let mut loads = 0usize;
    let mut stores = 0usize;
    let mut branches = 0usize;
    let mut taken = 0usize;
    let mut pages = std::collections::HashSet::new();
    let mut statics = std::collections::HashSet::new();
    // Dependence distances via a last-writer table.
    let mut last_writer: HashMap<usize, usize> = HashMap::new();
    let mut dist_sum = 0u64;
    let mut dist_n = 0u64;

    for (i, d) in window.into_iter().enumerate() {
        insns += 1;
        statics.insert(d.pc);
        match d.class() {
            InsnClass::IntAlu | InsnClass::IntMul | InsnClass::IntDiv => int_ops += 1,
            InsnClass::FpAlu | InsnClass::FpMul | InsnClass::FpDiv => fp_ops += 1,
            InsnClass::Load => {
                loads += 1;
                pages.insert(d.mem_addr >> 12);
            }
            InsnClass::Store => {
                stores += 1;
                pages.insert(d.mem_addr >> 12);
            }
            InsnClass::Branch => {
                branches += 1;
                if d.taken() {
                    taken += 1;
                }
            }
            _ => {}
        }
        for src in d.insn.sources().into_iter().flatten() {
            if src.is_zero() {
                continue;
            }
            if let Some(&w) = last_writer.get(&src.unified()) {
                dist_sum += ((i - w) as u64).min(256);
                dist_n += 1;
            }
        }
        if let Some(dst) = d.insn.dest() {
            last_writer.insert(dst.unified(), i);
        }
    }
    let n = insns.max(1);
    MixReport {
        insns,
        int_ops: int_ops as f64 / n as f64,
        fp_ops: fp_ops as f64 / n as f64,
        loads: loads as f64 / n as f64,
        stores: stores as f64 / n as f64,
        branches: branches as f64 / n as f64,
        taken_rate: if branches == 0 {
            0.0
        } else {
            taken as f64 / branches as f64
        },
        mean_dep_distance: if dist_n == 0 {
            0.0
        } else {
            dist_sum as f64 / dist_n as f64
        },
        data_pages: pages.len(),
        static_insns: statics.len(),
    }
}

/// Render the suite characterization table (one row per benchmark).
pub fn suite_table(window: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:10} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>7}",
        "program", "class", "int%", "fp%", "ld%", "st%", "br%", "depdist", "pages", "static"
    );
    for b in crate::suite() {
        let program = b.build();
        let mut cpu = Cpu::new(&program);
        // The first `window` instructions, or up to `halt` (inclusive).
        let steps = std::iter::from_fn(|| cpu.step().expect("benchmark must emulate"));
        let m = characterize(steps.take(window));
        let _ = writeln!(
            out,
            "{:10} {:>5} {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>7.1} {:>7} {:>7}",
            b.name,
            if b.is_fp() { "FP" } else { "INT" },
            m.int_ops * 100.0,
            m.fp_ops * 100.0,
            m.loads * 100.0,
            m.stores * 100.0,
            m.branches * 100.0,
            m.mean_dep_distance,
            m.data_pages,
            m.static_insns,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark;
    use rcmc_emu::trace_program;

    fn mix(name: &str) -> MixReport {
        let b = benchmark(name).unwrap();
        characterize(trace_program(&b.build(), 20_000).unwrap().iter())
    }

    #[test]
    fn fractions_sum_below_one() {
        for name in ["swim", "mcf", "crafty"] {
            let m = mix(name);
            let sum = m.int_ops + m.fp_ops + m.loads + m.stores + m.branches;
            assert!(sum <= 1.0 + 1e-9, "{name}: fraction sum {sum}");
            assert!(sum > 0.8, "{name}: unclassified fraction too large ({sum})");
        }
    }

    #[test]
    fn mcf_has_tighter_chains_than_swim() {
        // The pointer chase is serial (short dependence distances); the
        // stencil is wide.
        let mcf = mix("mcf");
        let swim = mix("swim");
        assert!(
            mcf.mean_dep_distance < swim.mean_dep_distance,
            "mcf {:.1} vs swim {:.1}",
            mcf.mean_dep_distance,
            swim.mean_dep_distance
        );
    }

    #[test]
    fn footprints_ranked_sensibly() {
        let mcf = mix("mcf"); // 256 KiB pointer chain
        let apsi = mix("apsi"); // 16 KiB vectors
        assert!(
            mcf.data_pages > 4 * apsi.data_pages,
            "{} vs {}",
            mcf.data_pages,
            apsi.data_pages
        );
    }

    #[test]
    fn loops_are_compact_statically() {
        for name in ["swim", "gzip"] {
            let m = mix(name);
            assert!(
                m.static_insns < 400,
                "{name}: static footprint {}",
                m.static_insns
            );
            assert!(m.insns == 20_000);
        }
    }

    #[test]
    fn branch_taken_rates_in_range() {
        for name in ["gcc", "twolf", "vortex"] {
            let m = mix(name);
            assert!(m.branches > 0.03, "{name} branches {:.3}", m.branches);
            assert!(
                m.taken_rate > 0.2 && m.taken_rate < 0.99,
                "{name} taken rate {:.2}",
                m.taken_rate
            );
        }
    }

    #[test]
    fn suite_table_renders_all_rows() {
        let t = suite_table(2_000);
        assert_eq!(t.lines().count(), 27); // header + 26 programs
        assert!(t.contains("wupwise"));
    }
}
