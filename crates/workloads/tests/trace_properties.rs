//! Every surrogate benchmark must execute cleanly and exhibit its intended
//! dynamic character (instruction mix, branch behaviour, footprint).

use rcmc_emu::trace_program;
use rcmc_isa::InsnClass;
use rcmc_workloads::{suite, Class};

const WINDOW: usize = 30_000;

#[test]
fn every_benchmark_emulates_a_full_window() {
    for b in suite() {
        let p = b.build();
        let t = trace_program(&p, WINDOW)
            .unwrap_or_else(|e| panic!("{} failed to emulate: {e}", b.name));
        assert_eq!(t.len(), WINDOW, "{} trace too short (halted early)", b.name);
        assert!(!t.halted, "{} must run steady-state, not halt", b.name);
    }
}

#[test]
fn fp_benchmarks_are_fp_heavy_and_int_benchmarks_are_not() {
    for b in suite() {
        let p = b.build();
        let t = trace_program(&p, WINDOW).unwrap();
        let fp = t
            .iter()
            .filter(|d| {
                matches!(
                    d.class(),
                    InsnClass::FpAlu | InsnClass::FpMul | InsnClass::FpDiv
                ) || matches!(d.insn.op, rcmc_isa::Opcode::Fld | rcmc_isa::Opcode::Fst)
            })
            .count() as f64
            / t.len() as f64;
        match b.class {
            Class::Fp => assert!(
                fp > 0.25,
                "{}: FP fraction {fp:.2} too low for SPECfp",
                b.name
            ),
            Class::Int => assert!(
                fp < 0.05,
                "{}: FP fraction {fp:.2} too high for SPECint",
                b.name
            ),
        }
    }
}

#[test]
fn int_benchmarks_are_branchier() {
    let mut int_avg = 0.0;
    let mut fp_avg = 0.0;
    let (mut n_int, mut n_fp) = (0, 0);
    for b in suite() {
        let p = b.build();
        let t = trace_program(&p, WINDOW).unwrap();
        let br = t.iter().filter(|d| d.insn.op.is_cond_branch()).count() as f64 / t.len() as f64;
        match b.class {
            Class::Int => {
                int_avg += br;
                n_int += 1;
            }
            Class::Fp => {
                fp_avg += br;
                n_fp += 1;
            }
        }
    }
    int_avg /= n_int as f64;
    fp_avg /= n_fp as f64;
    assert!(
        int_avg > fp_avg,
        "INT programs should be branchier: int {int_avg:.3} vs fp {fp_avg:.3}"
    );
}

#[test]
fn all_memory_accesses_are_aligned() {
    for b in suite() {
        let p = b.build();
        let t = trace_program(&p, WINDOW).unwrap();
        for d in t.iter() {
            if d.insn.op.is_mem() {
                assert_eq!(
                    d.mem_addr % 8,
                    0,
                    "{}: misaligned access at pc {}",
                    b.name,
                    d.pc
                );
            }
        }
    }
}

#[test]
fn every_benchmark_touches_memory() {
    for b in suite() {
        let p = b.build();
        let t = trace_program(&p, WINDOW).unwrap();
        let mem = t.iter().filter(|d| d.insn.op.is_mem()).count();
        assert!(
            mem * 20 > t.len(),
            "{}: only {mem} memory ops in {} instructions",
            b.name,
            t.len()
        );
    }
}

#[test]
fn mcf_has_low_ilp_chain_character() {
    // The pointer chase must be dominated by dependent loads.
    let b = rcmc_workloads::benchmark("mcf").unwrap();
    let t = trace_program(&b.build(), WINDOW).unwrap();
    let loads = t.iter().filter(|d| d.class() == InsnClass::Load).count() as f64;
    assert!(loads / t.len() as f64 > 0.15, "mcf load fraction too low");
}

#[test]
fn nbody_benchmarks_use_fp_divides() {
    for name in ["ammp", "fma3d"] {
        let b = rcmc_workloads::benchmark(name).unwrap();
        let t = trace_program(&b.build(), WINDOW).unwrap();
        let divs = t.iter().filter(|d| d.class() == InsnClass::FpDiv).count();
        assert!(divs > 100, "{name}: expected many FP divides, got {divs}");
    }
}

#[test]
fn footprints_differ_across_suite() {
    // Crude footprint proxy: number of distinct 4KiB pages touched.
    let mut footprints = Vec::new();
    for b in suite() {
        let p = b.build();
        let t = trace_program(&p, WINDOW).unwrap();
        let mut pages: Vec<u64> = t
            .iter()
            .filter(|d| d.insn.op.is_mem())
            .map(|d| d.mem_addr >> 12)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        footprints.push(pages.len());
    }
    let min = footprints.iter().min().unwrap();
    let max = footprints.iter().max().unwrap();
    assert!(
        max > &(min * 4),
        "suite should span diverse footprints ({min}..{max} pages)"
    );
}
