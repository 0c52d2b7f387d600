//! The execution environment experiment plans run in.
//!
//! A [`Session`] owns everything a run needs besides the plan itself: the
//! disk-backed [`ResultStore`] memoization, the worker count, and the
//! store of imported traces. One `Session` can execute any number of
//! [`Plan`]s — `rcmc serve` keeps a single warm session alive across
//! requests, so every plan after the first reuses memoized runs.
//!
//! [`Session::run`] executes on the same job engine as `rcmc serve`: it
//! submits the plan as one request to a fresh [`Scheduler`] whose workers
//! are scoped threads, then returns the finished [`ResultSet`]. Each
//! executed job streams its own oracle trace, so a run holds no suite
//! trace. A run is silent; [`Session::run_streaming`] hands each job's
//! [`SweepProgress`] to a callback. A job that fails (an imported trace
//! that does not decode) ends the run with its error.
//!
//! ```no_run
//! use rcmc_sim::plan::Plan;
//! use rcmc_sim::session::Session;
//! let session = Session::new().with_jobs(4);
//! let plan = Plan::new("quick").config_named("Ring_8clus_1bus_2IW").bench("swim");
//! let rs = session.run_streaming(&plan, &|p| p.eprint_status()).unwrap();
//! println!("{}", rs.to_csv());
//! ```

use std::sync::Mutex;

use rcmc_emu::TraceDb;
use serde::json::Value;

use crate::plan::Plan;
use crate::resultset::ResultSet;
use crate::runner::{self, ProgressFn, ResultStore, SweepProgress};
use crate::scheduler::{JobFailure, RunRequest, Scheduler, Sink, Tally};

/// An experiment-execution environment: result store + worker count +
/// trace store.
#[derive(Debug)]
pub struct Session {
    store: ResultStore,
    jobs: usize,
    // Where plans resolve imported workloads; the workers never read it.
    trace_db: Option<TraceDb>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// The sink of a [`Session::run_streaming`] request: progress to the
/// caller's callback, the finished set or a job's failure into `result`.
struct RunSink<'a> {
    progress: ProgressFn<'a>,
    result: &'a Mutex<Option<Result<ResultSet, String>>>,
}

impl RunSink<'_> {
    fn end(&self, outcome: Result<ResultSet, String>) -> bool {
        *self.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        true
    }
}

impl Sink for RunSink<'_> {
    fn progress(&self, p: &SweepProgress<'_>) -> bool {
        (self.progress)(p);
        true
    }

    fn done(&self, rs: ResultSet, _: Tally) -> bool {
        self.end(Ok(rs))
    }

    fn cancelled(&self, failure: Option<&JobFailure>) -> bool {
        self.end(Err(
            failure.map_or("request cancelled".into(), |f| f.to_string())
        ))
    }
}

/// Closes the scheduler when dropped, so the workers drain and exit even
/// if the body beside them unwinds.
struct CloseOnDrop<'a, 's>(&'a Scheduler<'s>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Session {
    /// The standard environment: the workspace's shared
    /// `target/rcmc-results` store and [`runner::default_jobs`] workers
    /// (`RCMC_JOBS`, else all cores).
    pub fn new() -> Session {
        Session::with_store(ResultStore::open_default())
    }

    /// A session that memoizes nothing and has no trace store (tests,
    /// throwaway experiments): it runs suite benchmarks only.
    pub fn ephemeral() -> Session {
        Session::with_store(ResultStore::ephemeral()).without_trace_store()
    }

    /// A session over an explicit store (trace store: the process default,
    /// see [`runner::default_trace_db`]).
    pub fn with_store(store: ResultStore) -> Session {
        Session {
            store,
            jobs: runner::default_jobs(),
            trace_db: Some(runner::default_trace_db().clone()),
        }
    }

    /// Run on `jobs` workers (1 = true serial execution on the calling
    /// thread; results are bit-identical at any count).
    pub fn with_jobs(mut self, jobs: usize) -> Session {
        self.jobs = jobs.max(1);
        self
    }

    /// Load this session's imported traces from an explicit trace store.
    pub fn with_trace_store(mut self, db: TraceDb) -> Session {
        self.trace_db = Some(db);
        self
    }

    /// Detach the trace store: the session runs suite benchmarks only
    /// (which never touch a store), and imported names are unknown.
    pub fn without_trace_store(mut self) -> Session {
        self.trace_db = None;
        self
    }

    /// The session's trace store, if one is attached.
    pub fn trace_db(&self) -> Option<&TraceDb> {
        self.trace_db.as_ref()
    }

    /// The session's worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The session's result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Execute `plan`: resolve its configurations and benchmarks, run the
    /// grid on the session's workers (with the plan's budget, else the
    /// env-derived [`runner::Budget::default`]), and return the typed
    /// results. Fails without simulating anything if the plan names an
    /// unknown group/config/bench/metric.
    pub fn run(&self, plan: &Plan) -> Result<ResultSet, String> {
        self.run_streaming(plan, &|_| {})
    }

    /// [`Session::run`] with a per-job progress callback. Callbacks arrive
    /// with strictly increasing `finished`; a plan the store satisfies
    /// entirely gets exactly one callback, with `total == 0`. A job that
    /// fails ends the run: its error (configuration, bench and why) is
    /// returned once the workers have exited, and no row is stored for it.
    ///
    /// The plan is submitted as the only request of a fresh, unbounded
    /// scheduler and drained with the calling thread working as one of
    /// its workers (so one worker is a true serial run on the caller). A
    /// worker panic propagates to the caller once every worker has exited.
    pub fn run_streaming(
        &self,
        plan: &Plan,
        progress: ProgressFn<'_>,
    ) -> Result<ResultSet, String> {
        // One resolution pass covers validation too (report references)
        // — see `Plan::resolve`. Resolution happens against this
        // session's trace store so its imported traces are runnable.
        let (cfgs, workloads) = plan.resolve_workloads_in(self.trace_db.as_ref())?;
        let result = Mutex::new(None);
        let run = RunRequest {
            id: Value::Null,
            label: plan.name.clone(),
            cfgs,
            workloads,
            budget: plan.budget.unwrap_or_default(),
            sink: Box::new(RunSink {
                progress,
                result: &result,
            }),
        };
        let sched = Scheduler::new(usize::MAX);
        self.with_workers(&sched, self.jobs - 1, || {
            sched.submit(run, &self.store);
            sched.close();
            sched.worker(&self.store);
        });
        let outcome = result.lock().unwrap_or_else(|e| e.into_inner()).take();
        outcome.unwrap_or_else(|| Err("request cancelled".into()))
    }

    /// Run `body` on the calling thread beside `spawned` scoped threads,
    /// each a [`Scheduler::worker`] loop over this session's result store, then
    /// close `sched` and return once every worker has drained the queue
    /// and exited. The one place a session starts threads: a session run
    /// spawns `jobs - 1` and works on the caller, `rcmc serve` spawns
    /// `jobs` beside its reader.
    pub(crate) fn with_workers<'s, R>(
        &self,
        sched: &Scheduler<'s>,
        spawned: usize,
        body: impl FnOnce() -> R,
    ) -> R {
        std::thread::scope(|s| {
            for _ in 0..spawned {
                s.spawn(|| sched.worker(&self.store));
            }
            let _close = CloseOnDrop(sched);
            body()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::make;
    use crate::runner::Budget;
    use rcmc_core::Topology;

    fn tiny() -> Budget {
        Budget {
            warmup: 1_000,
            measure: 4_000,
        }
    }

    #[test]
    fn scheduler_path_equals_the_bare_job() {
        let s = Session::ephemeral().with_jobs(2);
        let cfg = make(Topology::Ring, 4, 2, 1);
        let plan = Plan::new("t")
            .config_named(&cfg.name)
            .bench("swim")
            .budget(tiny());
        let rs = s.run(&plan).unwrap();
        assert_eq!(rs.len(), 1);
        let swim = runner::Workload::resolve("swim", None).unwrap();
        let bare = runner::run_pair(&cfg, &swim, &tiny(), s.store()).unwrap();
        assert_eq!(rs.get(&cfg.name, "swim"), Some(&bare));
    }

    #[test]
    fn a_one_worker_run_reports_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let calls = Mutex::new(Vec::new());
        let plan = Plan::new("t")
            .config_axes(Some(Topology::Ring), None, Some(4), Some(2), Some(1), None)
            .config_axes(Some(Topology::Conv), None, Some(4), Some(2), Some(1), None)
            .bench("gzip")
            .bench("swim")
            .budget(tiny());
        let on_job = |p: &SweepProgress<'_>| {
            calls
                .lock()
                .unwrap()
                .push((p.finished, std::thread::current().id()));
        };
        Session::ephemeral()
            .with_jobs(1)
            .run_streaming(&plan, &on_job)
            .unwrap();
        let calls = calls.into_inner().unwrap();
        assert_eq!(calls.len(), 4);
        for (finished, thread) in calls {
            assert_eq!(thread, caller, "job {finished} reported off the caller");
        }
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
