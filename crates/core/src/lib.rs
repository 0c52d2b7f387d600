//! # rcmc-core — the clustered out-of-order back end
//!
//! This crate is the paper's contribution plus its baseline: a
//! dynamically-scheduled clustered superscalar core that replays oracle
//! traces from `rcmc-emu` under the paper's two interconnect topologies
//! (plus three beyond-paper ones) and three steering algorithms.
//!
//! ## The ring clustered microarchitecture (Figure 1)
//!
//! ```text
//!        ┌────────┐   ┌────────┐   ┌────────┐   ┌────────┐
//!   ┌──▶ │cluster0│──▶│cluster1│──▶│cluster2│──▶│cluster3│ ──┐
//!   │    └────────┘   └────────┘   └────────┘   └────────┘   │
//!   │    each box: issue queue + comm queue + regfile + FUs  │
//!   └────────────────────(bypass ring + buses)◀──────────────┘
//! ```
//!
//! In [`config::Topology::Ring`] the outputs of cluster *i*'s functional
//! units feed the register file and bypass network of cluster *(i+1) mod N*:
//! dependent instructions issue back-to-back only when the consumer sits in
//! the next cluster, which is exactly where the §3.1 dependence-based
//! steering wants to put it — so minimizing communication *is* balancing the
//! load. [`config::Topology::Conv`] models the conventional baseline
//! (intra-cluster bypass, DCOUNT balance control, forward+backward buses).
//!
//! Both bus topologies, and the beyond-paper crossbar, mesh and
//! hierarchical ones, run on one [`Fabric`]: links of reservation windows,
//! and one route function per topology that also fills the
//! [`DistanceLut`] steering minimizes.
//!
//! Steering is one pure function, [`steering::steer`], of the algorithm
//! ([`Steering`]), a tie-break phase and a read-only [`SteerCtx`] view of
//! the machine; it returns a [`Steered`] placement. The core keeps the
//! phase and advances it after each steer that [`steering::rotates`].
//!
//! Entry point: [`Core`], built over a dynamic trace; see `rcmc-sim` for
//! Table 2/3 presets and whole-suite sweeps.

pub mod config;
pub mod fabric;
pub mod fu;
pub mod lsq;
pub mod pipeline;
pub mod pipeview;
pub mod queues;
pub mod stats;
pub mod steering;
pub mod timeq;
pub mod value;

pub use config::{CopyRelease, CoreConfig, Steering, Topology, MAX_CLUSTERS, RUN_AHEAD};
pub use fabric::{DistanceLut, Fabric, Grant};
pub use pipeline::Core;
pub use pipeview::PipeTracer;
pub use stats::Stats;
pub use steering::{SteerCtx, Steered};

#[cfg(test)]
mod pipeline_tests;
