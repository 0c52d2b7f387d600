//! Quickstart: build a small program with the `Asm` builder, run it on
//! both the ring and the conventional clustered cores, and compare what
//! happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ring_clustered::asm::Asm;
use ring_clustered::core::{Core, CoreConfig, Steering, Topology};
use ring_clustered::emu::trace_program;
use ring_clustered::isa::Reg;
use ring_clustered::uarch::{MemConfig, PredictorConfig};

fn main() {
    // A little dot-product-style loop in the RCMC mini-ISA, built with the
    // same `Asm` calls as the suite kernels (`rcmc disasm <bench>` lists one).
    let (r, f) = (Reg::int, Reg::fp);
    let mut a = Asm::new();
    let x = a.data_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    let y = a.data_f64(&[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
    a.movi(r(1), 2000); // outer repetitions (warms the caches)
    let outer = a.label_here();
    a.movi_addr(r(2), x);
    a.movi_addr(r(3), y);
    a.movi(r(4), 8); // elements
    let inner = a.label_here();
    a.fld(f(1), r(2), 0);
    a.fld(f(2), r(3), 0);
    a.fmul(f(3), f(1), f(2));
    a.fadd(f(4), f(4), f(3)); // running dot product
    a.addi(r(2), r(2), 8);
    a.addi(r(3), r(3), 8);
    a.addi(r(4), r(4), -1);
    a.bne(r(4), r(0), inner);
    a.addi(r(1), r(1), -1);
    a.bne(r(1), r(0), outer);
    a.halt();
    let program = a.assemble().expect("assembly failed");
    println!("static program: {} instructions", program.insns.len());

    // Functional execution produces the oracle trace the timing cores replay.
    let trace = trace_program(&program, 200_000).expect("emulation failed");
    println!(
        "dynamic trace:  {} instructions (halted: {})\n",
        trace.len(),
        trace.halted
    );

    for (label, topology, steering) in [
        ("Ring (paper §3)", Topology::Ring, Steering::RingDep),
        ("Conv (baseline §4.1)", Topology::Conv, Steering::ConvDcount),
    ] {
        let cfg = CoreConfig {
            topology,
            steering,
            ..CoreConfig::default()
        };
        let mut core = Core::new(
            cfg,
            MemConfig::default(),
            PredictorConfig::default(),
            &trace,
        );
        let stats = core.run(u64::MAX);
        println!(
            "{label:22} IPC {:.3}  comms/insn {:.3}  mean hops {:.2}  bus wait {:.2}  NREADY {:.2}",
            stats.ipc(),
            stats.comms_per_insn(),
            stats.dist_per_comm(),
            stats.wait_per_comm(),
            stats.nready_per_cycle(),
        );
        let shares: Vec<String> = stats
            .dispatch_shares(8)
            .iter()
            .map(|s| format!("{:4.1}%", s * 100.0))
            .collect();
        println!("{:22} per-cluster dispatch: [{}]\n", "", shares.join(" "));
    }
    println!("Note how the ring spreads dispatch almost perfectly evenly —");
    println!("the paper's 'inherent workload balance' — without a balance knob.");
}
