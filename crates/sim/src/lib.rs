//! # rcmc-sim — simulation driver
//!
//! Ties the stack together for experiments, around three types:
//!
//! * [`plan::Plan`] — a serializable experiment description: configurations
//!   (named presets, whole paper grids, or ad-hoc axes) × benchmarks ×
//!   instruction budget × worker count × derived-metric reports. Built with
//!   the builder methods or parsed from a JSON spec file;
//! * [`session::Session`] — the execution environment: the disk-backed
//!   result store (`target/rcmc-results/`), the worker thread pool, the
//!   on-disk trace store, and the progress sink. Runs go through the same
//!   scheduler as `rcmc serve`, whose workers hold each oracle trace only
//!   while its jobs run;
//! * [`resultset::ResultSet`] — typed sweep results with the
//!   query/group/geomean/speedup combinators every figure draws from.
//!
//! Supporting modules: [`config`] (Table 2/3 presets and the ablation
//! grids), [`machines`] (the registry of named machine families plan specs
//! select with `"machine"`), [`runner`] (one memoized job — trace load,
//! simulate, reduce, persist — and the raw per-run metrics), [`report`]
//! (text rendering), [`experiments`] (every paper figure as a builtin plan
//! carrying its reports), [`scheduler`] (the one job engine: every session run and
//! serve request fans its jobs out there, with cross-request coalescing,
//! cancellation and admission control), [`serve`] (the JSON-lines
//! request/response loop behind `rcmc serve`).
//!
//! ```no_run
//! use rcmc_sim::experiments::plans;
//! use rcmc_sim::session::Session;
//! let session = Session::new();
//! let rs = session.run(&plans::main()).unwrap();
//! println!("{}", rs.to_csv());
//! ```
//!
//! Runs fan out over the session's pool (`--jobs`/`RCMC_JOBS`) with
//! results bit-identical at any worker count, and every finished
//! (configuration × benchmark) pair is memoized on disk, so regenerating
//! every figure simulates each pair exactly once.

pub mod config;
pub mod experiments;
pub mod machines;
pub mod plan;
pub mod report;
pub mod resultset;
pub mod runner;
pub mod scheduler;
pub mod serve;
pub mod session;

pub use config::SimConfig;
pub use machines::Machine;
pub use plan::{ConfigSpec, Plan, RenderedReport, ReportSpec, SpeedupPair};
pub use resultset::{GroupValues, Metric, ResultSet};
pub use runner::{default_jobs, run_pair, Budget, JobKey, ResultStore, RunResult, SweepProgress};
pub use scheduler::{Scheduler, SchedulerStats};
pub use serve::{ServeOpts, ServeSummary, DEFAULT_QUEUE_LIMIT};
pub use session::{Progress, Session};
