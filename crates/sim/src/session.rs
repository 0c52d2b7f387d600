//! The execution environment experiment plans run in.
//!
//! A [`Session`] owns everything a run needs besides the plan itself: the
//! disk-backed [`ResultStore`] memoization, the worker [`rayon::ThreadPool`]
//! fan-out, the on-disk trace store, and the progress sink. One `Session`
//! can execute any number of [`Plan`]s — `rcmc serve` keeps a single warm
//! session alive across requests, so every plan after the first reuses
//! memoized runs.
//!
//! [`Session::run`] executes on the same job engine as `rcmc serve`: it
//! submits the plan as one request to a fresh [`Scheduler`] whose workers
//! run on the session's pool, then returns the finished [`ResultSet`].
//! The workers hold the oracle traces, each loaded once per plan; when
//! the run returns, only traces a caller still holds stay in memory.
//!
//! ```no_run
//! use rcmc_sim::plan::Plan;
//! use rcmc_sim::session::{Progress, Session};
//! let session = Session::new().with_progress(Progress::Stderr);
//! let plan = Plan::new("quick").config_named("Ring_8clus_1bus_2IW").bench("swim");
//! let rs = session.run(&plan).unwrap();
//! println!("{}", rs.to_csv());
//! ```

use std::sync::Mutex;

use rcmc_emu::TraceDb;
use serde::json::Value;

use crate::config::SimConfig;
use crate::plan::Plan;
use crate::resultset::ResultSet;
use crate::runner::{self, Budget, ProgressFn, ResultStore, RunResult, SweepProgress};
use crate::scheduler::{RunRequest, Scheduler, Sink, Tally};

/// Where a session reports per-job progress.
#[derive(Clone, Copy, Debug, Default)]
pub enum Progress {
    /// No progress output (benches, tests).
    #[default]
    Silent,
    /// The shared stderr status line (`[12/390] cfg × bench (ETA ..s)`).
    Stderr,
}

/// An experiment-execution environment: result store + thread pool +
/// trace store + progress sink.
#[derive(Debug)]
pub struct Session {
    store: ResultStore,
    // The vendored rayon pool is a worker *count* whose OS threads are
    // scoped to each operation — an idle pool holds no resources, so
    // constructing one per `with_jobs`/override is free. If this is ever
    // swapped for real rayon (whose pools spawn threads at construction),
    // make the pool lazy instead.
    pool: rayon::ThreadPool,
    jobs: usize,
    progress: Progress,
    // On-disk oracle-trace fallthrough; one handle shared by every
    // scheduler worker of this session.
    trace_db: Option<TraceDb>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// The sink of a [`Session::run`] request: progress to the caller's
/// callback (if any), the finished set into `result`.
struct RunSink<'a> {
    progress: Option<ProgressFn<'a>>,
    result: &'a Mutex<Option<ResultSet>>,
}

impl Sink for RunSink<'_> {
    fn progress(&self, p: &SweepProgress<'_>) -> bool {
        if let Some(f) = self.progress {
            f(p);
        }
        true
    }

    fn done(&self, rs: ResultSet, _: Tally) -> bool {
        *self.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(rs);
        true
    }

    fn cancelled(&self) -> bool {
        true
    }
}

impl Session {
    /// The standard environment: the workspace's shared
    /// `target/rcmc-results` store, [`runner::default_jobs`] workers
    /// (`RCMC_JOBS`, else all cores), no progress output.
    pub fn new() -> Session {
        Session::with_store(ResultStore::open_default())
    }

    /// A session that memoizes nothing and touches no on-disk trace store
    /// (tests, throwaway experiments): every trace a run needs is
    /// emulated.
    pub fn ephemeral() -> Session {
        Session::with_store(ResultStore::ephemeral()).without_trace_store()
    }

    /// A session over an explicit store (trace store: the process default,
    /// see [`runner::default_trace_db`]).
    pub fn with_store(store: ResultStore) -> Session {
        let jobs = runner::default_jobs();
        Session {
            store,
            pool: rayon::ThreadPool::new(jobs),
            jobs,
            progress: Progress::Silent,
            trace_db: runner::default_trace_db().cloned(),
        }
    }

    /// Replace the worker pool with one of `jobs` threads (1 = true serial
    /// execution on the calling thread; results are bit-identical at any
    /// count).
    pub fn with_jobs(mut self, jobs: usize) -> Session {
        self.jobs = jobs.max(1);
        self.pool = rayon::ThreadPool::new(self.jobs);
        self
    }

    /// Set the progress sink.
    pub fn with_progress(mut self, progress: Progress) -> Session {
        self.progress = progress;
        self
    }

    /// Use an explicit on-disk trace store for this session's runs.
    pub fn with_trace_store(mut self, db: TraceDb) -> Session {
        self.trace_db = Some(db);
        self
    }

    /// Disable the on-disk trace store for this session (every missing
    /// trace is emulated; nothing is persisted).
    pub fn without_trace_store(mut self) -> Session {
        self.trace_db = None;
        self
    }

    /// The session's trace store, if one is attached.
    pub fn trace_db(&self) -> Option<&TraceDb> {
        self.trace_db.as_ref()
    }

    /// Worker count of the session's pool.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The session's result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// The session's worker pool (the serve scheduler spawns its workers
    /// on it so `--jobs` governs service concurrency too).
    pub fn pool(&self) -> &rayon::ThreadPool {
        &self.pool
    }

    /// The session's progress sink.
    pub fn progress(&self) -> &Progress {
        &self.progress
    }

    /// Execute `plan`: resolve its configurations and benchmarks, run the
    /// grid (on the plan's `jobs`/`budget` overrides if set, else the
    /// session's pool and the env-derived [`Budget::default`]), and return
    /// the typed results. Fails without simulating anything if the plan
    /// names an unknown group/config/bench/metric.
    pub fn run(&self, plan: &Plan) -> Result<ResultSet, String> {
        let stderr_line = |p: &SweepProgress<'_>| p.eprint_status();
        let progress: Option<ProgressFn<'_>> = match self.progress {
            Progress::Silent => None,
            Progress::Stderr => Some(&stderr_line),
        };
        self.execute(plan, progress)
    }

    /// [`Session::run`] with an explicit per-job progress callback that
    /// overrides the session sink for this run. Callbacks arrive with
    /// strictly increasing `finished`; a plan the store satisfies entirely
    /// gets exactly one callback, with `total == 0`.
    pub fn run_streaming(
        &self,
        plan: &Plan,
        progress: ProgressFn<'_>,
    ) -> Result<ResultSet, String> {
        self.execute(plan, Some(progress))
    }

    /// Submit `plan` as the only request of a fresh, unbounded scheduler
    /// and drain it on the pool, the calling thread working as one of its
    /// workers (so one worker is a true serial run on the caller). A
    /// worker panic propagates to the caller when the scope joins.
    fn execute(&self, plan: &Plan, progress: Option<ProgressFn<'_>>) -> Result<ResultSet, String> {
        // One resolution pass covers validation too (report references,
        // jobs bounds) — see `Plan::resolve`. Resolution happens against
        // this session's trace store so its imported traces are runnable.
        let (cfgs, benches) = plan.resolve_in(self.trace_db.as_ref())?;
        let result = Mutex::new(None);
        let run = RunRequest {
            id: Value::Null,
            label: plan.name.clone(),
            cfgs,
            benches,
            budget: plan.budget.unwrap_or_default(),
            sink: Box::new(RunSink {
                progress,
                result: &result,
            }),
        };
        let sched = Scheduler::new(usize::MAX);
        let override_pool = plan.jobs.map(rayon::ThreadPool::new);
        let pool = override_pool.as_ref().unwrap_or(&self.pool);
        let (store, db) = (&self.store, self.trace_db.as_ref());
        pool.scope(|s| {
            for _ in 1..pool.num_threads() {
                s.spawn(|| sched.worker(store, db));
            }
            sched.submit(run, store);
            sched.close();
            sched.worker(store, db);
        });
        let rs = result.lock().unwrap_or_else(|e| e.into_inner()).take();
        Ok(rs.expect("an unbounded, uncancelled request always completes"))
    }

    /// Run (or load) a single `(configuration, benchmark)` pair through the
    /// session's store.
    pub fn run_one(&self, cfg: &SimConfig, bench: &str, budget: &Budget) -> RunResult {
        runner::run_pair(cfg, bench, budget, &self.store, self.trace_db.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::make;
    use rcmc_core::Topology;

    fn tiny() -> Budget {
        Budget {
            warmup: 1_000,
            measure: 4_000,
        }
    }

    #[test]
    fn session_sweep_matches_run_one() {
        let s = Session::ephemeral().with_jobs(2);
        let cfg = make(Topology::Ring, 4, 2, 1);
        let plan = Plan::new("t")
            .config_named(&cfg.name)
            .bench("swim")
            .budget(tiny());
        let rs = s.run(&plan).unwrap();
        assert_eq!(rs.len(), 1);
        let direct = s.run_one(&cfg, "swim", &tiny());
        assert_eq!(rs.get(&cfg.name, "swim"), Some(&direct));
    }

    #[test]
    fn plan_jobs_override_is_still_bit_identical() {
        let plan = Plan::new("t")
            .config_axes(Some(Topology::Ring), None, Some(4), Some(2), Some(1), None)
            .bench("gzip")
            .bench("swim")
            .budget(tiny());
        let serial = Session::ephemeral().with_jobs(1).run(&plan).unwrap();
        let parallel = Session::ephemeral()
            .with_jobs(1)
            .run(&plan.clone().jobs(4))
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn unknown_plan_inputs_fail_before_simulating() {
        let s = Session::ephemeral();
        let bad_bench = Plan::new("t")
            .config_named("Ring_8clus_1bus_2IW")
            .bench("nope");
        assert!(s.run(&bad_bench).unwrap_err().contains("nope"));
        let bad_cfg = Plan::new("t").config_named("Ring_9000clus").bench("swim");
        assert!(s.run(&bad_cfg).unwrap_err().contains("Ring_9000clus"));
    }
}
