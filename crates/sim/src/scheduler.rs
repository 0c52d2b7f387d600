//! The job engine: every (configuration × benchmark) grid runs here.
//!
//! [`crate::session::Session::run`] submits one request and closes; `rcmc
//! serve` keeps many in flight at once. Either way, requests fan their jobs
//! onto one shared set of workers, and each job is simulate (streaming its
//! trace) → reduce → persist ([`runner::run_pair`]). A request arrives
//! with its workloads already resolved ([`Workload`]), so the scheduler
//! never looks a name up: a job runs the suite program or the open trace
//! file its request resolved, whatever the trace store holds by then.
//! Three service-grade behaviors sit on top:
//!
//! * **Coalescing** — jobs are keyed by [`JobKey`], what the job
//!   simulates (configuration content, workload content, budget, model
//!   version), exactly the identity the [`ResultStore`] files rows under.
//!   A job requested by N concurrent clients — or under N labels of one
//!   machine — is simulated once; every subscriber receives the same
//!   bit-identical row under its own labels. A thundering herd of the same
//!   query costs one simulation.
//! * **Cancellation** — the `cancel` verb (and client disconnect, which
//!   reuses the same path) drops a request's queued-but-unstarted jobs.
//!   Jobs already running finish and still populate the store; jobs other
//!   requests also subscribe to keep running for those requests.
//! * **Admission control** — the queue of not-yet-started jobs is bounded.
//!   A request whose new jobs would push it past the limit is rejected
//!   atomically (nothing partially enqueued) with [`Submission::Busy`],
//!   so one over-deep client cannot balloon the process. A session run
//!   uses no bound.
//! * **Failure isolation** — a job whose imported trace does not decode
//!   saves no row and counts as failed. Every request subscribed to it
//!   ends through the cancellation path (its queued jobs dropped), and its
//!   sink's one terminal event carries the failed configuration, bench and
//!   error ([`JobFailure`]). Other requests and the workers carry on.
//!
//! A request's fresh jobs queue bench-major, in submission order.
//!
//! Each request carries a typed [`Sink`]: it receives a [`SweepProgress`]
//! per delivered job, then the finished [`ResultSet`] with its [`Tally`]
//! (or a cancellation or failure). The scheduler knows no wire format;
//! `serve` turns sink calls into JSON events, `Session::run` into its
//! return value.
//!
//! The scheduler owns no threads: the session runs [`Scheduler::worker`]
//! loops on scoped std threads (as many as its `--jobs` count) and
//! submits beside them. All scheduler methods are safe to call from any
//! thread.
//!
//! Lock order (strict, deadlock-free): scheduler state → request state →
//! sink. Sink calls never hold the scheduler lock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use serde::json::Value;

use crate::config::SimConfig;
use crate::resultset::ResultSet;
use crate::runner::{
    self, labelled, Budget, JobKey, ResultStore, RunResult, SweepProgress, Workload,
};

/// Where one request's deliveries go. Every method returns `false` when
/// the consumer is gone (a failed client write), which the scheduler
/// treats as a disconnect.
pub trait Sink: Send + Sync {
    /// One delivered job — or, for a request the store satisfied entirely,
    /// the single terminal event with `total == 0`. Called under the
    /// request's lock, so `finished` is strictly increasing.
    fn progress(&self, p: &SweepProgress<'_>) -> bool;
    /// Every row is in: the assembled result set and its tallies. Called
    /// at most once, after the last `progress`.
    fn done(&self, rs: ResultSet, tally: Tally) -> bool;
    /// The request ended before completing: cancelled (`None`), or failed
    /// because one of its jobs did (`Some`). Nothing follows.
    fn cancelled(&self, failure: Option<&JobFailure>) -> bool;
}

/// A job that failed, as one request subscribed to it sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFailure {
    /// The request's configuration label of the job.
    pub config: String,
    /// The request's benchmark label of the job.
    pub bench: String,
    /// Why the job failed (names the trace that did not decode).
    pub error: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} × {}: {}", self.config, self.bench, self.error)
    }
}

/// Per-request job accounting, delivered with the finished [`ResultSet`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// (config × bench) pairs the request covers.
    pub jobs: usize,
    /// Pairs simulated for this request.
    pub executed: usize,
    /// Pairs satisfied by joining an identical in-flight job.
    pub coalesced: usize,
    /// Pairs satisfied from the result store at submission.
    pub memoized: usize,
}

/// One `run` request for [`Scheduler::submit`].
pub struct RunRequest<'s> {
    /// Identity [`Scheduler::cancel`] matches on (serve echoes the client
    /// id; a session run uses `Null`).
    pub id: Value,
    /// Tag carried on every [`SweepProgress`] of the request.
    pub label: String,
    /// Resolved configurations.
    pub cfgs: Vec<SimConfig>,
    /// Resolved workloads ([`Workload::resolve`]).
    pub workloads: Vec<Workload>,
    /// Instruction window of every job.
    pub budget: Budget,
    /// Receives the request's deliveries.
    pub sink: Box<dyn Sink + 's>,
}

/// Lifetime counters of one scheduler, and two gauges of what it is doing
/// now (reported by the `stats` op and in
/// [`crate::serve::ServeSummary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Gauge: jobs waiting for a worker now.
    pub queued: u64,
    /// Gauge: jobs simulating now.
    pub running: u64,
    /// (config × bench) pairs requested by accepted `run` requests.
    pub submitted: u64,
    /// Jobs actually simulated by the workers.
    pub executed: u64,
    /// Jobs that failed instead (their trace did not decode), each ending
    /// the requests subscribed to it.
    pub failed: u64,
    /// Pairs satisfied by subscribing to an identical in-flight job.
    pub coalesced: u64,
    /// Pairs satisfied from the result store at submission time.
    pub memoized: u64,
    /// Queued jobs dropped by cancellation before starting.
    pub cancelled: u64,
    /// Requests rejected by admission control (`busy`).
    pub rejected: u64,
}

impl SchedulerStats {
    /// Fraction of submitted pairs that did not need a fresh simulation —
    /// coalesced onto an in-flight job or memoized from the store.
    pub fn coalesce_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.coalesced + self.memoized) as f64 / self.submitted as f64
        }
    }
}

/// One in-flight `run` request: its identity, its sink, and the mutable
/// delivery state.
struct Request<'s> {
    /// What [`Scheduler::cancel`] matches on.
    id: Value,
    /// Tag carried on every progress event.
    label: String,
    /// When the request was accepted (drives the progress ETA).
    started: Instant,
    sink: Box<dyn Sink + 's>,
    state: Mutex<ReqState>,
}

/// Mutable per-request delivery state, behind the request's own lock so
/// deliveries to different requests never contend.
#[derive(Default)]
struct ReqState {
    /// Rows collected so far (memoized hits up front, then one per
    /// delivered job).
    rows: Vec<RunResult>,
    /// Jobs this request waits on (memoized pairs excluded).
    total: usize,
    /// Jobs delivered so far.
    finished: usize,
    /// Pairs satisfied from the store at submission.
    memoized: usize,
    /// Pairs satisfied by joining another request's in-flight job.
    coalesced: usize,
    /// Cancelled requests receive no further events and never finalize.
    cancelled: bool,
    /// Set once the result has reached the sink.
    done: bool,
}

/// A distinct simulation job and the requests subscribed to its result.
struct Job<'s> {
    /// The configuration and workload to simulate (the first
    /// subscriber's — equal keys imply bit-identical results).
    cfg: SimConfig,
    workload: Workload,
    /// Running jobs survive cancellation; queued ones don't.
    running: bool,
    subscribers: Vec<Subscriber<'s>>,
}

/// One request's claim on a job, with the labels its row is delivered
/// under.
struct Subscriber<'s> {
    req: Arc<Request<'s>>,
    config: String,
    /// The requester's resolved workload: its name and class label the
    /// row.
    workload: Workload,
}

struct SchedState<'s> {
    /// Keys of queued (not yet running) jobs. May contain tombstones for
    /// jobs cancellation already removed; workers skip those.
    queue: VecDeque<JobKey>,
    /// Every live job (queued or running), keyed by coalescing identity.
    jobs: HashMap<JobKey, Job<'s>>,
    /// Count of queued (not running, not tombstoned) jobs — the quantity
    /// admission control bounds.
    queued: usize,
    /// Requests with at least one undelivered job.
    requests: Vec<Arc<Request<'s>>>,
    /// No more submissions; workers drain the queue and exit.
    closed: bool,
    stats: SchedulerStats,
}

/// Outcome of [`Scheduler::submit`].
pub enum Submission {
    /// The request was accepted (and possibly already completed, if every
    /// pair was memoized); its tallies reach the sink with the result.
    Accepted,
    /// Admission control rejected the request; nothing was enqueued.
    Busy {
        /// Jobs the request would have needed.
        jobs: usize,
        /// Queue depth at rejection time.
        queued: usize,
        /// The configured queue bound.
        limit: usize,
    },
}

/// The shared scheduler: a bounded queue of deduplicated jobs plus the
/// request registry. See the [module docs](self) for semantics. `'s`
/// bounds what the request sinks borrow.
pub struct Scheduler<'s> {
    state: Mutex<SchedState<'s>>,
    /// Signals workers when jobs are enqueued, the loop closes, or the
    /// client disconnects.
    work: Condvar,
    /// Max queued (unstarted) jobs; see [`Scheduler::submit`].
    queue_limit: usize,
    /// Set when a write to the client failed; workers purge all queued
    /// work and requests the next time they look at the queue.
    disconnected: AtomicBool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<'s> Scheduler<'s> {
    /// A scheduler admitting at most `queue_limit` queued jobs
    /// (`usize::MAX` = unbounded).
    pub fn new(queue_limit: usize) -> Scheduler<'s> {
        Scheduler {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                queued: 0,
                requests: Vec::new(),
                closed: false,
                stats: SchedulerStats::default(),
            }),
            work: Condvar::new(),
            queue_limit: queue_limit.max(1),
            disconnected: AtomicBool::new(false),
        }
    }

    /// Snapshot of the lifetime counters and the gauges.
    pub fn stats(&self) -> SchedulerStats {
        let st = lock(&self.state);
        SchedulerStats {
            queued: st.queued as u64,
            running: st.jobs.values().filter(|j| j.running).count() as u64,
            ..st.stats
        }
    }

    /// True once a write to the client has failed.
    pub fn is_disconnected(&self) -> bool {
        self.disconnected.load(Ordering::Relaxed)
    }

    /// Record a failed client write: queued jobs and live requests are
    /// purged (running jobs still finish and populate the store), and
    /// idle workers are woken so drain-and-exit happens promptly.
    pub fn note_disconnect(&self) {
        self.disconnected.store(true, Ordering::Relaxed);
        self.work.notify_all();
    }

    /// No further submissions: workers finish the queued jobs and exit.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.work.notify_all();
    }

    /// Submit one `run` request: split its (config × bench) grid into
    /// store hits, joins onto identical in-flight jobs, and fresh jobs.
    /// Admission is all-or-nothing — if the fresh jobs would exceed the
    /// queue bound, nothing is enqueued and `Busy` is returned. A request
    /// satisfied entirely by the store completes inline: one terminal
    /// progress with `total == 0`, then its result.
    pub fn submit(&self, run: RunRequest<'s>, store: &ResultStore) -> Submission {
        let RunRequest {
            id,
            label,
            cfgs,
            workloads,
            budget,
            sink,
        } = run;
        // Memo pass first, without the scheduler lock: store reads touch
        // the disk and must not serialize the whole service. Fresh jobs
        // are collected bench-major.
        let mut rows: Vec<RunResult> = Vec::new();
        let mut pending: Vec<(JobKey, &SimConfig, &Workload)> = Vec::new();
        for workload in &workloads {
            for cfg in &cfgs {
                let key = JobKey::of(cfg, workload, &budget);
                match store.load_key(&key) {
                    Some(hit) => rows.push(labelled(&hit, &cfg.name, workload)),
                    None => pending.push((key, cfg, workload)),
                }
            }
        }
        let memoized = rows.len();
        let total = pending.len();
        let req = Arc::new(Request {
            id,
            label,
            started: Instant::now(),
            sink,
            state: Mutex::new(ReqState {
                rows,
                total,
                memoized,
                ..ReqState::default()
            }),
        });
        let mut coalesced = 0usize;
        {
            let mut st = lock(&self.state);
            let fresh = pending
                .iter()
                .filter(|(key, ..)| !st.jobs.contains_key(key))
                .count();
            if st.queued + fresh > self.queue_limit {
                st.stats.rejected += 1;
                return Submission::Busy {
                    jobs: total,
                    queued: st.queued,
                    limit: self.queue_limit,
                };
            }
            st.stats.submitted += (total + memoized) as u64;
            st.stats.memoized += memoized as u64;
            for (key, cfg, workload) in pending {
                let sub = Subscriber {
                    req: req.clone(),
                    config: cfg.name.clone(),
                    workload: workload.clone(),
                };
                match st.jobs.get_mut(&key) {
                    // Identical job already queued or running: subscribe.
                    Some(job) => {
                        job.subscribers.push(sub);
                        coalesced += 1;
                    }
                    None => {
                        st.jobs.insert(
                            key.clone(),
                            Job {
                                cfg: cfg.clone(),
                                workload: workload.clone(),
                                running: false,
                                subscribers: vec![sub],
                            },
                        );
                        st.queue.push_back(key);
                        st.queued += 1;
                    }
                }
            }
            st.stats.coalesced += coalesced as u64;
            // Workers can deliver as soon as the lock drops, but `total`
            // was fixed at construction, so no delivery can finalize
            // before every pair is registered.
            lock(&req.state).coalesced = coalesced;
            if total > 0 {
                st.requests.push(req.clone());
            }
        }
        self.work.notify_all();
        if total == 0 {
            // Entirely memoized: terminal progress, then the result,
            // inline on the submitting thread.
            let progress = SweepProgress {
                label: &req.label,
                finished: 0,
                total: 0,
                coalesced: 0,
                memoized,
                elapsed_s: req.started.elapsed().as_secs_f64(),
                config: "",
                bench: "",
            };
            self.check(req.sink.progress(&progress));
            self.finalize(&req);
        }
        Submission::Accepted
    }

    /// One worker loop: pop jobs, simulate (memoized via the store), and
    /// deliver the row to every subscriber under its labels — or, for a
    /// job that fails, end every subscribed request with the failure.
    /// Returns when the scheduler is closed and the queue is drained.
    pub fn worker(&self, store: &ResultStore) {
        while let Some((key, cfg, workload)) = self.next_job() {
            let outcome = runner::run_pair(&cfg, &workload, &key.budget, store);
            let job = {
                let mut st = lock(&self.state);
                match outcome {
                    Ok(_) => st.stats.executed += 1,
                    Err(_) => st.stats.failed += 1,
                }
                // Cancellation never removes a running job, so the entry
                // is still there (possibly with no subscribers left).
                st.jobs.remove(&key).expect("running job stays registered")
            };
            match outcome {
                Ok(r) => {
                    for sub in &job.subscribers {
                        self.deliver(&sub.req, labelled(&r, &sub.config, &sub.workload));
                    }
                }
                Err(error) => {
                    let victims = job.subscribers.into_iter().map(|sub| {
                        let failure = JobFailure {
                            config: sub.config,
                            bench: sub.workload.name().to_string(),
                            error: error.clone(),
                        };
                        (sub.req, Some(failure))
                    });
                    self.cancel_requests(victims.collect());
                }
            }
        }
    }

    /// Cancel every live request whose id equals `target`. Returns
    /// `(found, dropped)`: whether any live request matched, and how many
    /// queued jobs were dropped (jobs other requests still subscribe to —
    /// and running jobs — are kept). Each cancelled request's sink hears
    /// [`Sink::cancelled`] once.
    pub fn cancel(&self, target: &Value) -> (bool, usize) {
        let victims = {
            let st = lock(&self.state);
            st.requests
                .iter()
                .filter(|r| &r.id == target)
                .map(|r| (r.clone(), None))
                .collect()
        };
        self.cancel_requests(victims)
    }

    /// Cancel every live request (client EOF and stream-desync path).
    /// Returns the number of queued jobs dropped.
    pub fn cancel_all(&self) -> usize {
        let victims = lock(&self.state)
            .requests
            .iter()
            .map(|r| (r.clone(), None))
            .collect();
        self.cancel_requests(victims).1
    }

    /// End each victim request still live — cancelled, or failed with its
    /// [`JobFailure`] — and drop the queued jobs no live request still
    /// subscribes to. Returns whether any request ended, and how many
    /// jobs were dropped.
    fn cancel_requests(
        &self,
        victims: Vec<(Arc<Request<'s>>, Option<JobFailure>)>,
    ) -> (bool, usize) {
        if victims.is_empty() {
            return (false, 0);
        }
        let mut cancelled: Vec<(Arc<Request<'s>>, Option<JobFailure>)> = Vec::new();
        let mut dropped = 0usize;
        {
            let mut st = lock(&self.state);
            for (req, failure) in victims {
                let mut rs = lock(&req.state);
                // A delivery may have finalized the request between the
                // lookup and here; `done`/`cancelled` settle the race.
                if rs.done || rs.cancelled {
                    continue;
                }
                rs.cancelled = true;
                drop(rs);
                cancelled.push((req, failure));
            }
            let is_victim = |r: &Arc<Request<'s>>| cancelled.iter().any(|(v, _)| Arc::ptr_eq(r, v));
            if !cancelled.is_empty() {
                let dead: Vec<JobKey> = st
                    .jobs
                    .iter_mut()
                    .filter_map(|(key, job)| {
                        job.subscribers.retain(|s| !is_victim(&s.req));
                        (job.subscribers.is_empty() && !job.running).then(|| key.clone())
                    })
                    .collect();
                // Queue entries for removed jobs become tombstones the
                // workers skip; re-walking the deque here is not needed.
                for key in dead {
                    st.jobs.remove(&key);
                    st.queued -= 1;
                    dropped += 1;
                }
                st.stats.cancelled += dropped as u64;
                st.requests.retain(|r| !is_victim(r));
            }
        }
        for (req, failure) in &cancelled {
            self.check(req.sink.cancelled(failure.as_ref()));
        }
        (!cancelled.is_empty(), dropped)
    }

    /// Pop the next runnable job, waiting while the queue is empty, until
    /// the scheduler is closed and drained. Purges all queued work first
    /// whenever the client has disconnected.
    fn next_job(&self) -> Option<(JobKey, SimConfig, Workload)> {
        let mut st = lock(&self.state);
        loop {
            if self.disconnected.load(Ordering::Relaxed) {
                Self::purge(&mut st);
            }
            while let Some(key) = st.queue.pop_front() {
                // Tombstone (cancelled) or already-claimed key: skip.
                let Some(job) = st.jobs.get_mut(&key) else {
                    continue;
                };
                if job.running {
                    continue;
                }
                job.running = true;
                let (cfg, workload) = (job.cfg.clone(), job.workload.clone());
                st.queued -= 1;
                return Some((key, cfg, workload));
            }
            if st.closed {
                return None;
            }
            st = self.work.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Disconnect cleanup: cancel every live request and drop every
    /// queued job, without notifying sinks (the client is gone).
    /// Idempotent.
    fn purge(st: &mut MutexGuard<'_, SchedState<'s>>) {
        for req in &st.requests {
            lock(&req.state).cancelled = true;
        }
        st.requests.clear();
        let before = st.jobs.len();
        st.jobs.retain(|_, job| job.running);
        let dropped = before - st.jobs.len();
        st.queue.clear();
        st.queued = 0;
        st.stats.cancelled += dropped as u64;
    }

    /// A sink reported its consumer gone: treat it as a disconnect.
    fn check(&self, delivered: bool) {
        if !delivered {
            self.note_disconnect();
        }
    }

    /// Hand one finished row to a subscriber: append it, report progress
    /// to its sink, and finalize once the last job lands.
    fn deliver(&self, req: &Arc<Request<'s>>, r: RunResult) {
        let complete = {
            let mut rs = lock(&req.state);
            if rs.cancelled || rs.done {
                return;
            }
            rs.finished += 1;
            // Reported under the request lock so `finished` is strictly
            // increasing at the sink.
            let progress = SweepProgress {
                label: &req.label,
                finished: rs.finished,
                total: rs.total,
                coalesced: rs.coalesced,
                memoized: rs.memoized,
                elapsed_s: req.started.elapsed().as_secs_f64(),
                config: &r.config,
                bench: &r.bench,
            };
            self.check(req.sink.progress(&progress));
            rs.rows.push(r);
            rs.finished == rs.total
        };
        if complete {
            self.finalize(req);
        }
    }

    /// All rows in: assemble the deterministic [`ResultSet`] (same
    /// canonical ordering however the rows arrived — coalesced results are
    /// bit-identical) and hand it to the sink with the request's tallies.
    fn finalize(&self, req: &Arc<Request<'s>>) {
        let (rows, tally) = {
            let mut rs = lock(&req.state);
            if rs.cancelled || rs.done {
                return;
            }
            rs.done = true;
            let tally = Tally {
                jobs: rs.total + rs.memoized,
                executed: rs.total - rs.coalesced,
                coalesced: rs.coalesced,
                memoized: rs.memoized,
            };
            (std::mem::take(&mut rs.rows), tally)
        };
        lock(&self.state).requests.retain(|r| !Arc::ptr_eq(r, req));
        self.check(req.sink.done(ResultSet::from_rows(rows), tally));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use rcmc_core::Topology;

    struct Ignore;

    impl Sink for Ignore {
        fn progress(&self, _: &SweepProgress<'_>) -> bool {
            true
        }
        fn done(&self, _: ResultSet, _: Tally) -> bool {
            true
        }
        fn cancelled(&self, _: Option<&JobFailure>) -> bool {
            true
        }
    }

    #[test]
    fn gauges_count_queued_and_running_jobs() {
        let plan = Plan::new("gauges")
            .config_axes(Some(Topology::Ring), None, Some(4), Some(2), Some(1), None)
            .config_axes(Some(Topology::Conv), None, Some(4), Some(2), Some(1), None)
            .benches(["gzip", "swim"])
            .budget(Budget {
                warmup: 200,
                measure: 1_000,
            });
        let (cfgs, workloads) = plan.resolve_workloads_in(None).unwrap();
        let store = ResultStore::ephemeral();
        let sched = Scheduler::new(usize::MAX);
        let run = RunRequest {
            id: Value::Null,
            label: plan.name.clone(),
            cfgs,
            workloads,
            budget: plan.budget.unwrap(),
            sink: Box::new(Ignore),
        };
        assert!(matches!(sched.submit(run, &store), Submission::Accepted));
        let s = sched.stats();
        assert_eq!((s.queued, s.running, s.executed), (4, 0, 0));
        sched.close();
        sched.worker(&store);
        let s = sched.stats();
        assert_eq!((s.queued, s.running, s.executed), (0, 0, 4));
    }
}
