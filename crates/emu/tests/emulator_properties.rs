//! Emulator-level properties: determinism, trace chaining, memory-model
//! round trips, and architectural invariants over random programs.

use proptest::prelude::*;
use rcmc_emu::{trace_program, Cpu, Memory};
use rcmc_isa::{Insn, Opcode, Program, Reg};

proptest! {
    #[test]
    fn memory_roundtrips_random_words(
        writes in prop::collection::vec((0u64..(1 << 20), any::<u64>()), 1..200)
    ) {
        let mut m = Memory::new();
        let mut model = std::collections::HashMap::new();
        for (slot, v) in &writes {
            let addr = slot * 8;
            m.write_u64(addr, *v);
            model.insert(addr, *v);
        }
        for (addr, v) in model {
            prop_assert_eq!(m.read_u64(addr), v);
        }
    }

    #[test]
    fn traces_chain_and_are_deterministic(
        consts in prop::collection::vec(-1000i32..1000, 2..10),
        iters in 1i32..50,
    ) {
        // Loop summing random constants.
        let mut insns = vec![Insn::new(Opcode::Movi, Some(Reg::int(1)), None, None, iters)];
        for (k, c) in consts.iter().enumerate() {
            insns.push(Insn::new(
                Opcode::Movi,
                Some(Reg::int(2 + (k % 8) as u8)),
                None,
                None,
                *c,
            ));
        }
        let body_start = insns.len() as u32;
        for k in 0..consts.len() {
            insns.push(Insn::new(
                Opcode::Add,
                Some(Reg::int(10)),
                Some(Reg::int(10)),
                Some(Reg::int(2 + (k % 8) as u8)),
                0,
            ));
        }
        insns.push(Insn::new(Opcode::Addi, Some(Reg::int(1)), Some(Reg::int(1)), None, -1));
        let off = body_start as i64 - (insns.len() as i64 + 1);
        insns.push(Insn::new(
            Opcode::Bne,
            None,
            Some(Reg::int(1)),
            Some(Reg::int(0)),
            off as i32,
        ));
        insns.push(Insn::halt());
        let p = Program { insns, data: vec![], entry: 0 };

        let t1 = trace_program(&p, 100_000).unwrap();
        let t2 = trace_program(&p, 100_000).unwrap();
        prop_assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.iter().zip(t2.iter()) {
            prop_assert_eq!(a, b);
        }
        // Dynamic stream must chain: next_pc of k == pc of k+1.
        let insns: Vec<_> = t1.iter().collect();
        for w in insns.windows(2) {
            prop_assert_eq!(w[0].next_pc, w[1].pc);
        }
        // The loop body executes exactly `iters` times.
        let adds = t1.iter().filter(|d| d.insn.op == Opcode::Add).count();
        prop_assert_eq!(adds, consts.len() * iters as usize);
    }

    #[test]
    fn arch_sum_matches_rust(values in prop::collection::vec(-10_000i64..10_000, 1..64)) {
        // Store values to memory, then load-accumulate; final register must
        // equal the Rust-side sum.
        let mut insns = Vec::new();
        let base = 0x10000i32;
        insns.push(Insn::new(Opcode::Movi, Some(Reg::int(2)), None, None, base));
        for (i, v) in values.iter().enumerate() {
            // movi is i32; clamp values into range by construction.
            insns.push(Insn::new(Opcode::Movi, Some(Reg::int(3)), None, None, *v as i32));
            insns.push(Insn::new(
                Opcode::St,
                None,
                Some(Reg::int(2)),
                Some(Reg::int(3)),
                (i * 8) as i32,
            ));
        }
        for i in 0..values.len() {
            insns.push(Insn::new(
                Opcode::Ld,
                Some(Reg::int(4)),
                Some(Reg::int(2)),
                None,
                (i * 8) as i32,
            ));
            insns.push(Insn::new(
                Opcode::Add,
                Some(Reg::int(5)),
                Some(Reg::int(5)),
                Some(Reg::int(4)),
                0,
            ));
        }
        insns.push(Insn::halt());
        let p = Program { insns, data: vec![], entry: 0 };
        let mut cpu = Cpu::new(&p);
        while cpu.step().unwrap().is_some() {}
        prop_assert_eq!(cpu.int(5), values.iter().sum::<i64>());
    }

    #[test]
    fn fp_ops_match_rust_semantics(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let f = Reg::fp;
        let mut insns = Vec::new();
        // Materialize a and b through memory.
        let mut data = Vec::new();
        data.extend_from_slice(&a.to_le_bytes());
        data.extend_from_slice(&b.to_le_bytes());
        insns.push(Insn::new(Opcode::Movi, Some(Reg::int(1)), None, None, 0x2000));
        insns.push(Insn::new(Opcode::Fld, Some(f(1)), Some(Reg::int(1)), None, 0));
        insns.push(Insn::new(Opcode::Fld, Some(f(2)), Some(Reg::int(1)), None, 8));
        insns.push(Insn::new(Opcode::Fadd, Some(f(3)), Some(f(1)), Some(f(2)), 0));
        insns.push(Insn::new(Opcode::Fmul, Some(f(4)), Some(f(1)), Some(f(2)), 0));
        insns.push(Insn::new(Opcode::Fsub, Some(f(5)), Some(f(1)), Some(f(2)), 0));
        insns.push(Insn::new(Opcode::Fmax, Some(f(6)), Some(f(1)), Some(f(2)), 0));
        insns.push(Insn::halt());
        let p = Program {
            insns,
            data: vec![rcmc_isa::DataSeg { addr: 0x2000, bytes: data }],
            entry: 0,
        };
        let mut cpu = Cpu::new(&p);
        while cpu.step().unwrap().is_some() {}
        prop_assert_eq!(cpu.fp(3), a + b);
        prop_assert_eq!(cpu.fp(4), a * b);
        prop_assert_eq!(cpu.fp(5), a - b);
        prop_assert_eq!(cpu.fp(6), a.max(b));
    }
}
