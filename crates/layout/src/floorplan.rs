//! Cluster-module floorplans and inter-module wire lengths (Figures 4–5).
//!
//! First-order model, as in the paper: blocks are rectangles sized by the
//! [`crate::area::AreaModel`]; a module has an input edge (register files /
//! FU inputs, fed by the previous cluster) and an output edge (FU outputs,
//! feeding the next cluster). The inter-module wire for a producer→consumer
//! pair is the Manhattan run from the producer's output port, across the
//! consumer module's input column, to the consumer FU:
//!
//! ```text
//! d(straight → straight) = input_column_width + |Δy between ports|
//! d(through a corner)    = the same + half the FU-band extent (the turn)
//! ```
//!
//! The paper's reference values: ≤17,400 λ for integer data and ≤23,300 λ
//! for FP data in the unified ring (Figure 4), and ≤11,200 λ with separate
//! integer and FP rings (Figure 5). The tests pin our computed values to
//! those ballparks and to the paper's orderings.

use crate::area::{AreaModel, Component};

/// Straight or corner module (Figure 3 needs both for 8 clusters).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModuleKind {
    /// In-row module: signal passes straight through.
    Straight,
    /// Corner module: signal turns 90°.
    Corner,
}

/// Which ring a module belongs to (Figure 5 splits integer and FP).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RingKind {
    /// Unified ring: every cluster has INT + FP resources (Figure 4).
    Unified,
    /// Integer-only module of the split design (Figure 5a/b).
    SplitInt,
    /// FP-only module of the split design (Figure 5c/d).
    SplitFp,
}

/// A placed block.
#[derive(Clone, Debug)]
pub struct PlacedBlock {
    /// Component type.
    pub component: Component,
    /// x of the left edge (λ).
    pub x: f64,
    /// y of the top edge (λ).
    pub y: f64,
    /// Width (λ).
    pub w: f64,
    /// Height (λ).
    pub h: f64,
}

impl PlacedBlock {
    /// Vertical center.
    pub fn cy(&self) -> f64 {
        self.y + self.h / 2.0
    }
}

/// A module floorplan: placed blocks plus port positions.
#[derive(Clone, Debug)]
pub struct Floorplan {
    /// Module kind (straight/corner).
    pub kind: ModuleKind,
    /// Ring kind (unified/split).
    pub ring: RingKind,
    /// Placed blocks.
    pub blocks: Vec<PlacedBlock>,
    /// Total width (λ).
    pub width: f64,
    /// Total height (λ).
    pub height: f64,
    /// Width of the input column (register files + queues).
    pub input_col: f64,
    /// y positions of integer output ports (FU output centers).
    pub int_out: Vec<f64>,
    /// y positions of integer input ports.
    pub int_in: Vec<f64>,
    /// y positions of FP output ports.
    pub fp_out: Vec<f64>,
    /// y positions of FP input ports.
    pub fp_in: Vec<f64>,
    /// Extent of the FU band (used for the corner-turn penalty).
    pub fu_band: f64,
}

/// Build the Figure 4 unified module (straight or corner).
pub fn module_floorplan(model: &AreaModel, kind: ModuleKind) -> Floorplan {
    let rf = model.block(Component::RegisterFile);
    let iq = model.block(Component::IssueQueue);
    let cq = model.block(Component::CommQueue);
    let alu = model.block(Component::IntAlu);
    let mult = model.block(Component::IntMult);
    let fpu = model.block(Component::FpUnit);

    // Input column: Int RF, Int IQ, 2×comm IQ, FP IQ, FP RF stacked.
    let input_col = rf.width.max(iq.width);
    let mut blocks = Vec::new();
    let mut y = 0.0;
    for b in [&rf, &iq, &cq, &cq, &iq, &rf] {
        blocks.push(PlacedBlock {
            component: b.component,
            x: 0.0,
            y,
            w: b.width,
            h: b.height,
        });
        y += b.height;
    }
    let left_h = y;
    // FU column: Int ALU, Int Mult, FPU stacked (Figure 4a order).
    let mut y = 0.0;
    let fu_x = input_col;
    for b in [&alu, &mult, &fpu] {
        blocks.push(PlacedBlock {
            component: b.component,
            x: fu_x,
            y,
            w: b.width,
            h: b.height,
        });
        y += b.height;
    }
    let fu_band = y;
    let width = input_col + fpu.width.max(alu.width);
    let height = left_h.max(fu_band);

    let alu_cy = alu.height / 2.0;
    let mult_cy = alu.height + mult.height / 2.0;
    let fpu_cy = alu.height + mult.height + fpu.height / 2.0;
    Floorplan {
        kind,
        ring: RingKind::Unified,
        blocks,
        width,
        height,
        input_col,
        int_out: vec![alu_cy, mult_cy],
        int_in: vec![alu_cy, mult_cy],
        fp_out: vec![fpu_cy],
        fp_in: vec![fpu_cy],
        fu_band,
    }
}

/// Build the Figure 5 split-ring modules. Integer modules place the ALU and
/// multiplier side-by-side in one band so all ports align; FP modules hold a
/// single FPU.
pub fn split_ring_floorplan(model: &AreaModel, kind: ModuleKind, fp: bool) -> Floorplan {
    let rf = model.block(Component::RegisterFile);
    let iq = model.block(Component::IssueQueue);
    let cq = model.block(Component::CommQueue);
    let input_col = rf.width.max(iq.width);
    let mut blocks = Vec::new();
    let mut y = 0.0;
    for b in [&rf, &iq, &cq] {
        blocks.push(PlacedBlock {
            component: b.component,
            x: 0.0,
            y,
            w: b.width,
            h: b.height,
        });
        y += b.height;
    }
    let left_h = y;
    let (ports, fu_band, width, height);
    if fp {
        let fpu = model.block(Component::FpUnit);
        blocks.push(PlacedBlock {
            component: Component::FpUnit,
            x: input_col,
            y: 0.0,
            w: fpu.width,
            h: fpu.height,
        });
        ports = vec![fpu.height / 2.0];
        fu_band = fpu.height;
        width = input_col + fpu.width;
        height = left_h.max(fpu.height);
    } else {
        let alu = model.block(Component::IntAlu);
        let mult = model.block(Component::IntMult);
        // Side by side: both ports sit at the shared band center.
        blocks.push(PlacedBlock {
            component: Component::IntAlu,
            x: input_col,
            y: 0.0,
            w: alu.width,
            h: alu.height,
        });
        blocks.push(PlacedBlock {
            component: Component::IntMult,
            x: input_col + alu.width,
            y: 0.0,
            w: mult.width,
            h: mult.height,
        });
        let band = alu.height.max(mult.height);
        ports = vec![band / 2.0, band / 2.0];
        fu_band = band;
        width = input_col + alu.width + mult.width;
        height = left_h.max(band);
    }
    let (int_out, int_in, fp_out, fp_in) = if fp {
        (vec![], vec![], ports.clone(), ports)
    } else {
        (ports.clone(), ports, vec![], vec![])
    };
    Floorplan {
        kind,
        ring: if fp {
            RingKind::SplitFp
        } else {
            RingKind::SplitInt
        },
        blocks,
        width,
        height,
        input_col,
        int_out,
        int_in,
        fp_out,
        fp_in,
        fu_band,
    }
}

/// Maximum integer-data wire length from `from`'s outputs to `to`'s inputs.
pub fn max_wire_int(from: &Floorplan, to: &Floorplan) -> f64 {
    max_wire(
        &from.int_out,
        &to.int_in,
        to,
        from.kind == ModuleKind::Corner || to.kind == ModuleKind::Corner,
    )
}

/// Maximum FP-data wire length from `from`'s outputs to `to`'s inputs.
pub fn max_wire_fp(from: &Floorplan, to: &Floorplan) -> f64 {
    max_wire(
        &from.fp_out,
        &to.fp_in,
        to,
        from.kind == ModuleKind::Corner || to.kind == ModuleKind::Corner,
    )
}

fn max_wire(outs: &[f64], ins: &[f64], to: &Floorplan, through_corner: bool) -> f64 {
    let mut worst: f64 = 0.0;
    for &o in outs {
        for &i in ins {
            let mut d = to.input_col + (o - i).abs();
            if through_corner {
                d += to.fu_band / 2.0;
            }
            worst = worst.max(d);
        }
    }
    worst
}

/// The four wire paths Figures 4–5 report for the default cluster
/// placement: `(path, model λ, paper λ)`.
pub fn figure4_5_wires(model: &AreaModel) -> [(&'static str, f64, f64); 4] {
    let s = module_floorplan(model, ModuleKind::Straight);
    let c = module_floorplan(model, ModuleKind::Corner);
    let si = split_ring_floorplan(model, ModuleKind::Straight, false);
    let sf = split_ring_floorplan(model, ModuleKind::Straight, true);
    [
        (
            "unified int, straight→straight",
            max_wire_int(&s, &s),
            17_400.0,
        ),
        ("unified fp, straight→corner", max_wire_fp(&s, &c), 23_300.0),
        (
            "split int ring, straight→straight",
            max_wire_int(&si, &si),
            11_200.0,
        ),
        (
            "split fp ring, straight→straight",
            max_wire_fp(&sf, &sf),
            11_200.0,
        ),
    ]
}

/// Render Figures 4–5 (the default model's maximum inter-cluster wire
/// lengths next to the paper's) as text.
pub fn figure4_5_text() -> String {
    use std::fmt::Write as _;
    let mut text = String::from(
        "Figures 4-5. Maximum inter-cluster wire lengths (λ)\n\
         ----------------------------------------------------\n",
    );
    let _ = writeln!(text, "{:36} {:>10} {:>10}", "path", "model", "paper");
    for (name, model_v, paper_v) in figure4_5_wires(&AreaModel::default()) {
        let _ = writeln!(text, "{name:36} {model_v:>10.0} {paper_v:>10.0}");
    }
    text
}

/// Blocks must not overlap — a floorplan sanity invariant.
pub fn overlaps(fp: &Floorplan) -> bool {
    for (i, a) in fp.blocks.iter().enumerate() {
        for b in fp.blocks.iter().skip(i + 1) {
            let sep = a.x + a.w <= b.x + 1e-9
                || b.x + b.w <= a.x + 1e-9
                || a.y + a.h <= b.y + 1e-9
                || b.y + b.h <= a.y + 1e-9;
            if !sep {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper reference values (λ).
    const PAPER_INT_MAX: f64 = 17_400.0;
    const PAPER_FP_MAX: f64 = 23_300.0;
    const PAPER_SPLIT_MAX: f64 = 11_200.0;

    #[test]
    fn no_block_overlap() {
        let m = AreaModel::default();
        for fp in [
            module_floorplan(&m, ModuleKind::Straight),
            module_floorplan(&m, ModuleKind::Corner),
            split_ring_floorplan(&m, ModuleKind::Straight, false),
            split_ring_floorplan(&m, ModuleKind::Straight, true),
        ] {
            assert!(!overlaps(&fp));
        }
    }

    #[test]
    fn unified_int_wire_in_paper_ballpark() {
        let m = AreaModel::default();
        let s = module_floorplan(&m, ModuleKind::Straight);
        let d = max_wire_int(&s, &s);
        assert!(
            (d - PAPER_INT_MAX).abs() / PAPER_INT_MAX < 0.45,
            "int wire {d:.0} λ vs paper {PAPER_INT_MAX:.0} λ"
        );
    }

    #[test]
    fn fp_through_corner_is_the_worst_case() {
        let m = AreaModel::default();
        let s = module_floorplan(&m, ModuleKind::Straight);
        let c = module_floorplan(&m, ModuleKind::Corner);
        let fp_corner = max_wire_fp(&s, &c);
        let fp_straight = max_wire_fp(&s, &s);
        assert!(fp_corner > fp_straight, "the corner must add wire length");
        assert!(
            (fp_corner - PAPER_FP_MAX).abs() / PAPER_FP_MAX < 0.75,
            "fp corner wire {fp_corner:.0} λ vs paper {PAPER_FP_MAX:.0} λ"
        );
    }

    #[test]
    fn split_ring_shortens_wires() {
        let m = AreaModel::default();
        let uni = module_floorplan(&m, ModuleKind::Straight);
        let int_mod = split_ring_floorplan(&m, ModuleKind::Straight, false);
        let fp_mod = split_ring_floorplan(&m, ModuleKind::Straight, true);
        let d_int = max_wire_int(&int_mod, &int_mod);
        let d_fp = max_wire_fp(&fp_mod, &fp_mod);
        let d_uni = max_wire_int(&uni, &uni).max(max_wire_fp(&uni, &uni));
        assert!(d_int < d_uni, "split int {d_int:.0} < unified {d_uni:.0}");
        assert!(d_fp < d_uni, "split fp {d_fp:.0} < unified {d_uni:.0}");
        // The paper's split-ring maximum is ~the register-file width.
        assert!(
            (d_int - PAPER_SPLIT_MAX).abs() / PAPER_SPLIT_MAX < 0.30,
            "split int wire {d_int:.0} λ vs paper {PAPER_SPLIT_MAX:.0} λ"
        );
        assert!(
            (d_fp - PAPER_SPLIT_MAX).abs() / PAPER_SPLIT_MAX < 0.30,
            "split fp wire {d_fp:.0} λ vs paper {PAPER_SPLIT_MAX:.0} λ"
        );
    }

    #[test]
    fn wires_bounded_by_module_perimeter() {
        let m = AreaModel::default();
        let s = module_floorplan(&m, ModuleKind::Straight);
        let c = module_floorplan(&m, ModuleKind::Corner);
        for d in [
            max_wire_int(&s, &s),
            max_wire_fp(&s, &c),
            max_wire_int(&c, &s),
        ] {
            assert!(d < 2.0 * (s.width + s.height));
            assert!(d > 0.0);
        }
    }

    #[test]
    fn bigger_regfile_means_longer_wires() {
        let mut m = AreaModel::default();
        let base = {
            let s = module_floorplan(&m, ModuleKind::Straight);
            max_wire_int(&s, &s)
        };
        m.regs = 128;
        let s = module_floorplan(&m, ModuleKind::Straight);
        assert!(max_wire_int(&s, &s) > base);
    }
}
