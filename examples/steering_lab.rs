//! Steering laboratory: watch the three steering algorithms place the
//! paper's Figure 2 example, instruction by instruction, then run a custom
//! workload under all three.
//!
//! ```text
//! cargo run --release --example steering_lab [benchmark]
//! ```

use ring_clustered::core::config::DistanceLut;
use ring_clustered::core::steering::{RingDep, SteerCtx, SteeringPolicy};
use ring_clustered::core::value::ValueTable;
use ring_clustered::core::{CoreConfig, Steering, Topology};
use ring_clustered::sim::{config, runner, Plan, Session};

fn figure2_walkthrough() {
    println!("--- Figure 2 walkthrough (ring, 4 clusters) ---");
    let cfg = CoreConfig {
        n_clusters: 4,
        topology: Topology::Ring,
        steering: Steering::RingDep,
        regs_int: 64,
        regs_fp: 64,
        ..CoreConfig::default()
    };
    let mut values = ValueTable::new(4, 64, 64);
    let dist = DistanceLut::new(&cfg);
    let mut policy = RingDep::new();
    let steer = |policy: &mut RingDep, values: &ValueTable, srcs: &[u32]| {
        policy.steer(&SteerCtx {
            cfg: &cfg,
            dist: &dist,
            values,
            srcs,
        })
    };

    // I1. R1 = 1
    let s1 = steer(&mut policy, &values, &[]);
    let r1 = values.alloc(cfg.dest_cluster(s1.cluster), false);
    values.mark_ready(r1, cfg.dest_cluster(s1.cluster));
    println!(
        "I1. R1 = 1       -> cluster {} (R1 lands in {})",
        s1.cluster,
        cfg.dest_cluster(s1.cluster)
    );

    // I2. R2 = R1 + 1
    let s2 = steer(&mut policy, &values, &[r1]);
    let r2 = values.alloc(cfg.dest_cluster(s2.cluster), false);
    values.mark_ready(r2, cfg.dest_cluster(s2.cluster));
    println!(
        "I2. R2 = R1 + 1  -> cluster {} ({} comms)",
        s2.cluster,
        s2.comms.len()
    );

    // I3. R3 = R1 + R2
    let s3 = steer(&mut policy, &values, &[r1, r2]);
    for cm in &s3.comms {
        values.add_copy(cm.value, s3.cluster);
        values.mark_ready(cm.value, s3.cluster);
    }
    let r3 = values.alloc(cfg.dest_cluster(s3.cluster), false);
    values.mark_ready(r3, cfg.dest_cluster(s3.cluster));
    println!(
        "I3. R3 = R1 + R2 -> cluster {} ({} comm)",
        s3.cluster,
        s3.comms.len()
    );

    // I4. R4 = R1 + R3
    let s4 = steer(&mut policy, &values, &[r1, r3]);
    for cm in &s4.comms {
        values.add_copy(cm.value, s4.cluster);
        values.mark_ready(cm.value, s4.cluster);
    }
    let _r4 = values.alloc(cfg.dest_cluster(s4.cluster), false);
    println!(
        "I4. R4 = R1 + R3 -> cluster {} ({} comm)",
        s4.cluster,
        s4.comms.len()
    );

    // I5. R5 = R1 x 3
    let s5 = steer(&mut policy, &values, &[r1]);
    println!(
        "I5. R5 = R1 x 3  -> cluster {} (most free registers downstream)",
        s5.cluster
    );
    println!("(matches the paper's Figure 2: 0, 1, 2, 3, 3)\n");
}

fn main() {
    figure2_walkthrough();

    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "galgel".to_string());
    println!("--- '{bench}' across the (policy x fabric) cross (8 clusters, 1 bus, 2IW) ---");
    let budget = runner::Budget {
        warmup: 10_000,
        measure: 60_000,
    };
    // The whole (policy × fabric) cross is one plan over the
    // `steering-cross` group: its cells run on the session's workers and
    // are memoized in the shared result store.
    let plan = Plan::new("steering-lab")
        .group("steering-cross")
        .bench(&bench)
        .budget(budget);
    let rs = Session::new().run(&plan).unwrap_or_else(|e| panic!("{e}"));
    for topology in config::ALL_TOPOLOGIES {
        for steering in config::ALL_STEERINGS {
            let cfg = config::make_pair(topology, steering, 8, 2, 1);
            let label = format!(
                "{} + {}",
                config::topology_name(topology),
                config::steering_name(steering)
            );
            let r = rs
                .get(&cfg.name, &bench)
                .expect("every cell of the cross ran");
            let max_share = r.dispatch_shares.iter().copied().fold(0.0f64, f64::max);
            println!(
                "{label:14} IPC {:.3}  comms/insn {:.3}  NREADY {:.2}  max cluster share {:.1}%",
                r.ipc,
                r.comms_per_insn,
                r.nready,
                max_share * 100.0
            );
        }
        println!();
    }
    println!("Conv+SSA concentrates; Ring+SSA still balances — §4.7's headline.");
    println!("Any policy drives any fabric: that's the SteeringPolicy layer.");
}
