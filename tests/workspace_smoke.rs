//! Workspace smoke test: a fast, deterministic canary that the whole
//! cross-crate stack (asm → isa → emu → uarch → core) stays wired together.
//! If this fails, debug it before anything in the larger suites.

use ring_clustered::asm::Asm;
use ring_clustered::core::{Core, CoreConfig, Steering, Topology};
use ring_clustered::emu::trace_program;
use ring_clustered::isa::Reg;
use ring_clustered::uarch::{MemConfig, PredictorConfig};

/// A tiny loop with integer work, one load/store pair and a data-independent
/// branch: enough to touch steering, the LSQ and branch handling.
fn tiny_program() -> ring_clustered::isa::Program {
    let r = Reg::int;
    let mut a = Asm::new();
    let buf = a.data_zero(64);
    a.movi_addr(r(2), buf);
    a.movi(r(9), 25);
    let top = a.label_here();
    a.addi(r(1), r(1), 3);
    a.mul(r(3), r(1), r(1));
    a.st(r(3), r(2), 0);
    a.ld(r(4), r(2), 0);
    a.add(r(5), r(4), r(1));
    a.addi(r(9), r(9), -1);
    a.bne(r(9), r(0), top);
    a.halt();
    a.assemble().expect("smoke program must assemble")
}

#[test]
fn ring_and_conventional_commit_the_same_instruction_count() {
    let program = tiny_program();
    let trace = trace_program(&program, 4096).expect("smoke program must emulate");
    // Everything the emulator traced commits, except the halt itself.
    let expected = trace.len() as u64 - u64::from(trace.halted);

    let mut committed = Vec::new();
    for (topology, steering) in [
        (Topology::Ring, Steering::RingDep),
        (Topology::Conv, Steering::ConvDcount),
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
        assert_eq!(
            stats.committed, expected,
            "{topology:?}/{steering:?} must commit exactly the oracle stream"
        );
        assert!(
            stats.cycles > 0,
            "{topology:?} simulation must consume cycles"
        );
        committed.push(stats.committed);
    }
    assert_eq!(
        committed[0], committed[1],
        "topologies disagree on committed count"
    );
}
