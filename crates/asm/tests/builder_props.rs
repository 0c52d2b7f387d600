//! Property tests for the `Asm` builder: label resolution always yields
//! in-range branch targets, forward and backward.

use proptest::prelude::*;
use rcmc_asm::Asm;
use rcmc_isa::Reg;

proptest! {
    #[test]
    fn branch_targets_always_in_range_after_assembly(
        n_pads in 1usize..40,
        back in prop::bool::ANY,
    ) {
        let mut a = Asm::new();
        let target = a.new_label();
        if back {
            a.bind(target);
        }
        for _ in 0..n_pads {
            a.nop();
        }
        a.beq(Reg::int(1), Reg::int(2), target);
        if !back {
            a.bind(target);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let (pc, insn) = p
            .insns
            .iter()
            .enumerate()
            .find(|(_, i)| i.op == rcmc_isa::Opcode::Beq)
            .unwrap();
        let t = insn.branch_target(pc as u32) as usize;
        prop_assert!(t < p.insns.len(), "target {} out of range", t);
    }
}
