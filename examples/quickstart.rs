//! Quickstart: assemble a small program, run it on both the ring and the
//! conventional clustered cores, and compare what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ring_clustered::asm::parse;
use ring_clustered::core::{Core, CoreConfig, Steering, Topology};
use ring_clustered::emu::trace_program;
use ring_clustered::uarch::{MemConfig, PredictorConfig};

fn main() {
    // A little dot-product-style loop in the RCMC mini-ISA.
    let source = r#"
        .data
        x: .f64 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
        y: .f64 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0
        .text
        main:
            movi r1, 2000        ; outer repetitions (warms the caches)
        outer:
            movi r2, x
            movi r3, y
            movi r4, 8           ; elements
        loop:
            fld  f1, 0(r2)
            fld  f2, 0(r3)
            fmul f3, f1, f2
            fadd f4, f4, f3      ; running dot product
            addi r2, r2, 8
            addi r3, r3, 8
            addi r4, r4, -1
            bne  r4, r0, loop
            addi r1, r1, -1
            bne  r1, r0, outer
            halt
    "#;
    let program = parse(source).expect("assembly failed");
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
