//! The Table 1 area model.
//!
//! Per-cell areas (λ²) follow the paper exactly: issue-queue/comm-queue
//! entries are CAM+RAM bit rows (22,300 λ²/CAM bit, 13,900 λ²/RAM bit), the
//! register file uses 40,600 λ²/bit cells (3R+3W ports), and the functional
//! units use published λ²/bit block areas. Queues are tall-and-narrow
//! (1,000 λ wide); all other blocks are square.
//!
//! Note on the paper's comm-queue row: its reported total (8,006,400 λ²) is
//! ≈2× what its own per-bit formula yields for one 16-entry 6-CAM/9-RAM
//! queue (4,142,400 λ²); the factor of two is consistent with one comm queue
//! per register file (INT + FP), so [`AreaModel::table1`] reports the
//! doubled figure and the raw single-queue figure is available from
//! [`AreaModel::block`].

/// λ² area of one CAM bit cell.
pub const CAM_BIT: f64 = 22_300.0;
/// λ² area of one RAM bit cell.
pub const RAM_BIT: f64 = 13_900.0;
/// λ² area of one register-file bit cell (3R + 3W ports).
pub const REGFILE_BIT: f64 = 40_600.0;
/// λ² per bit of a 64-bit integer ALU.
pub const INT_ALU_BIT: f64 = 2_410_000.0;
/// λ² per bit of a 64-bit integer multiplier.
pub const INT_MULT_BIT: f64 = 1_840_000.0;
/// λ² per bit of a 64-bit FP unit (add + multiply).
pub const FPU_BIT: f64 = 4_550_000.0;

/// The cluster building blocks of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Component {
    /// 16-entry issue queue, 12 CAM + 24 RAM bits per entry.
    IssueQueue,
    /// 16-entry communication queue, 6 CAM + 9 RAM bits per entry.
    CommQueue,
    /// 48 × 64-bit registers.
    RegisterFile,
    /// 64-bit integer ALU.
    IntAlu,
    /// 64-bit integer multiplier.
    IntMult,
    /// 64-bit FP add+multiply unit.
    FpUnit,
}

impl Component {
    /// All components in Table 1 order.
    pub const ALL: [Component; 6] = [
        Component::IssueQueue,
        Component::CommQueue,
        Component::RegisterFile,
        Component::IntAlu,
        Component::IntMult,
        Component::FpUnit,
    ];

    /// Display name as in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Component::IssueQueue => "Issue queue",
            Component::CommQueue => "Comm. queue",
            Component::RegisterFile => "Register file",
            Component::IntAlu => "Integer ALU",
            Component::IntMult => "Integer Multiplier",
            Component::FpUnit => "FP Unit (Add+Mult)",
        }
    }
}

/// A sized block: area plus height/width.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockArea {
    /// Which component.
    pub component: Component,
    /// Total area in λ².
    pub area: f64,
    /// Height in λ.
    pub height: f64,
    /// Width in λ.
    pub width: f64,
}

/// The configurable model (entry counts / widths can be varied for
/// sensitivity studies; defaults are the paper's 8-cluster values).
#[derive(Clone, Debug)]
pub struct AreaModel {
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// CAM bits per issue-queue entry.
    pub iq_cam_bits: usize,
    /// RAM bits per issue-queue entry.
    pub iq_ram_bits: usize,
    /// Comm-queue entries.
    pub cq_entries: usize,
    /// CAM bits per comm-queue entry.
    pub cq_cam_bits: usize,
    /// RAM bits per comm-queue entry.
    pub cq_ram_bits: usize,
    /// Registers per register file.
    pub regs: usize,
    /// Bits per register.
    pub reg_bits: usize,
    /// Datapath width of the functional units.
    pub fu_bits: usize,
    /// Fixed queue width in λ (queues are bit-sliced columns).
    pub queue_width: f64,
}

impl Default for AreaModel {
    /// Table 1 parameters (8-cluster configuration).
    fn default() -> Self {
        AreaModel {
            iq_entries: 16,
            iq_cam_bits: 12,
            iq_ram_bits: 24,
            cq_entries: 16,
            cq_cam_bits: 6,
            cq_ram_bits: 9,
            regs: 48,
            reg_bits: 64,
            fu_bits: 64,
            queue_width: 1_000.0,
        }
    }
}

impl AreaModel {
    /// Area and dimensions of one block.
    pub fn block(&self, c: Component) -> BlockArea {
        let area = match c {
            Component::IssueQueue => {
                self.iq_entries as f64
                    * (self.iq_cam_bits as f64 * CAM_BIT + self.iq_ram_bits as f64 * RAM_BIT)
            }
            Component::CommQueue => {
                self.cq_entries as f64
                    * (self.cq_cam_bits as f64 * CAM_BIT + self.cq_ram_bits as f64 * RAM_BIT)
            }
            Component::RegisterFile => self.regs as f64 * self.reg_bits as f64 * REGFILE_BIT,
            Component::IntAlu => self.fu_bits as f64 * INT_ALU_BIT,
            Component::IntMult => self.fu_bits as f64 * INT_MULT_BIT,
            Component::FpUnit => self.fu_bits as f64 * FPU_BIT,
        };
        let (height, width) = match c {
            Component::IssueQueue | Component::CommQueue => {
                (area / self.queue_width, self.queue_width)
            }
            // Square blocks, as the paper assumes.
            _ => (area.sqrt(), area.sqrt()),
        };
        BlockArea {
            component: c,
            area,
            height,
            width,
        }
    }

    /// The Table 1 rows. The comm-queue row is doubled (INT + FP comm
    /// queues) to match the paper's reported total — see the module docs.
    pub fn table1(&self) -> Vec<BlockArea> {
        Component::ALL
            .iter()
            .map(|&c| {
                let mut b = self.block(c);
                if c == Component::CommQueue {
                    b.area *= 2.0;
                    b.height *= 2.0;
                }
                b
            })
            .collect()
    }

    /// Total cluster area (one of each FU per Table 1's module drawings:
    /// int RF + fp RF, int IQ + fp IQ, comm queues, ALU, multiplier, FPU).
    pub fn cluster_area(&self) -> f64 {
        2.0 * self.block(Component::IssueQueue).area
            + 2.0 * self.block(Component::CommQueue).area
            + 2.0 * self.block(Component::RegisterFile).area
            + self.block(Component::IntAlu).area
            + self.block(Component::IntMult).area
            + self.block(Component::FpUnit).area
    }
}

/// Render Table 1 (the default model's block areas) as text.
pub fn table1_text() -> String {
    use std::fmt::Write as _;
    let mut text = String::from(
        "Table 1. Area of the main cluster's blocks\n\
         -------------------------------------------\n",
    );
    let _ = writeln!(
        text,
        "{:22} {:>16} {:>12} {:>12}",
        "component", "total area (λ²)", "height (λ)", "width (λ)"
    );
    for b in AreaModel::default().table1() {
        let _ = writeln!(
            text,
            "{:22} {:>16.0} {:>12.0} {:>12.0}",
            b.component.name(),
            b.area,
            b.height,
            b.width
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_queue_matches_paper() {
        let m = AreaModel::default();
        let b = m.block(Component::IssueQueue);
        assert_eq!(b.area, 9_619_200.0, "Table 1 issue-queue area");
        assert!((b.height - 9_619.2).abs() < 0.5);
        assert_eq!(b.width, 1_000.0);
    }

    #[test]
    fn register_file_matches_paper() {
        let m = AreaModel::default();
        let b = m.block(Component::RegisterFile);
        assert_eq!(b.area, 124_723_200.0, "Table 1 register-file area");
        assert!((b.height - 11_168.0).abs() < 1.0, "height {:.0}", b.height);
    }

    #[test]
    fn functional_units_match_paper() {
        let m = AreaModel::default();
        assert_eq!(m.block(Component::IntAlu).area, 154_240_000.0);
        assert_eq!(m.block(Component::IntMult).area, 117_760_000.0);
        assert_eq!(m.block(Component::FpUnit).area, 291_200_000.0);
        assert!((m.block(Component::FpUnit).height - 17_065.0).abs() < 1.0);
        assert!((m.block(Component::IntAlu).height - 12_419.0).abs() < 1.0);
        assert!((m.block(Component::IntMult).height - 10_851.7).abs() < 1.0);
    }

    #[test]
    fn comm_queue_single_and_doubled() {
        let m = AreaModel::default();
        // Raw formula for one queue.
        assert_eq!(m.block(Component::CommQueue).area, 4_142_400.0);
        // Table 1 reports the doubled (INT+FP) figure; the paper's printed
        // value is 8,006,400 — within 3.5% of 2× our formula (rounding in
        // the original bit counts).
        let t1 = m.table1();
        let cq = t1
            .iter()
            .find(|b| b.component == Component::CommQueue)
            .unwrap();
        let rel = (cq.area - 8_006_400.0).abs() / 8_006_400.0;
        assert!(
            rel < 0.04,
            "doubled comm queue within 4% of the paper ({rel:.3})"
        );
    }

    #[test]
    fn table1_is_complete() {
        let rows = AreaModel::default().table1();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.area > 0.0 && r.height > 0.0 && r.width > 0.0);
        }
        let text = table1_text();
        // Title, rule, header, then one line per row.
        assert_eq!(text.lines().count(), 3 + rows.len());
        assert!(text.contains("Register file"), "{text}");
    }

    #[test]
    fn cluster_area_dominated_by_fpu_and_regfiles() {
        let m = AreaModel::default();
        let total = m.cluster_area();
        assert!(total > 0.0);
        let fpu = m.block(Component::FpUnit).area;
        let rf2 = 2.0 * m.block(Component::RegisterFile).area;
        assert!(fpu + rf2 > 0.5 * total);
    }

    #[test]
    fn model_scales_with_parameters() {
        let mut m = AreaModel::default();
        let base = m.block(Component::RegisterFile).area;
        m.regs = 96;
        assert_eq!(m.block(Component::RegisterFile).area, base * 2.0);
    }
}
