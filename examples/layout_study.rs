//! Layout study (§3.2): block areas, module floorplans, die placement, and
//! how wire lengths scale with the register file — the feasibility argument
//! for the ring bypass.
//!
//! ```text
//! cargo run --release --example layout_study
//! ```

use ring_clustered::layout::floorplan::{max_wire_int, module_floorplan, ModuleKind};
use ring_clustered::layout::{figure4_5_text, ring_placement, table1_text, AreaModel, Component};

fn main() {
    let model = AreaModel::default();

    print!("{}", table1_text());
    println!("cluster total: {:.0} λ²\n", model.cluster_area());

    println!("Figure 3 — ring placements");
    for n in [4usize, 8] {
        let p = ring_placement(n);
        let (s, c) = p.module_counts();
        let adjacent = (0..n).all(|i| p.neighbor_distance(i) == 1);
        println!(
            "  {n} clusters: {s} straight + {c} corner modules; neighbours adjacent: {adjacent}"
        );
    }
    println!();

    println!("{}", figure4_5_text());

    println!("Sensitivity — wire length vs register file size (unified int path)");
    for regs in [32usize, 48, 64, 96, 128] {
        let m = AreaModel {
            regs,
            ..AreaModel::default()
        };
        let fpn = module_floorplan(&m, ModuleKind::Straight);
        let rf = m.block(Component::RegisterFile);
        println!(
            "  {regs:>3} regs/cluster: RF {:>6.0} λ wide -> max int wire {:>7.0} λ",
            rf.width,
            max_wire_int(&fpn, &fpn)
        );
    }
    println!("\nConclusion (§3.2): next-cluster bypass wires are comparable to");
    println!("intra-cluster bypasses of a conventional clustered design.");
}
