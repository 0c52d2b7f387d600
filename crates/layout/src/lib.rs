//! # rcmc-layout — area and floorplan model (§3.2)
//!
//! The paper argues feasibility of the ring bypass with a first-order layout
//! study built on the technology-independent area model of Gupta, Keckler &
//! Burger (UT-Austin TR2000-5): per-cell areas in λ² for CAM/RAM/register
//! cells and published block areas for functional units. This crate encodes
//! that model and reproduces:
//!
//! * **Table 1** — block dimensions and total areas for the 8-cluster
//!   configuration's components ([`area`]);
//! * **Figure 3** — die placement of 4/8 clusters as a physical ring
//!   ([`placement`]);
//! * **Figure 4** — straight and corner cluster-module floorplans and the
//!   maximum inter-module wire lengths (17,400 λ integer / 23,300 λ FP)
//!   ([`floorplan`]);
//! * **Figure 5** — the split integer/FP dual-ring modules and their
//!   11,200 λ maximum wire length ([`floorplan`]).
//!
//! [`table1_text`], [`figure3_text`] and [`figure4_5_text`] render Table 1
//! and Figures 3–5 as `rcmc layout` and `rcmc figures` print them.

pub mod area;
pub mod floorplan;
pub mod placement;

pub use area::{table1_text, AreaModel, BlockArea, Component};
pub use floorplan::{
    figure4_5_text, figure4_5_wires, module_floorplan, split_ring_floorplan, Floorplan, ModuleKind,
    PlacedBlock,
};
pub use placement::{figure3_text, ring_placement, ClusterSite, RingPlacement};
