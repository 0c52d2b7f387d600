//! The job engine: every (configuration × benchmark) grid runs here.
//!
//! [`crate::session::Session::run`] submits one request and closes; `rcmc
//! serve` keeps many in flight at once. Either way, requests fan their jobs
//! onto one shared worker pool, and each job is load trace → simulate →
//! reduce → persist ([`runner::run_pair`]). Three service-grade behaviors
//! sit on top:
//!
//! * **Coalescing** — jobs are keyed by [`JobKey`] `(store config name,
//!   bench, budget)`, exactly the memoization identity of the
//!   [`ResultStore`]. A job requested by N concurrent clients is simulated
//!   once; every subscriber receives the same bit-identical row. A
//!   thundering herd of the same query costs one simulation.
//! * **Cancellation** — the `cancel` verb (and client disconnect, which
//!   reuses the same path) drops a request's queued-but-unstarted jobs.
//!   Jobs already running finish and still populate the store; jobs other
//!   requests also subscribe to keep running for those requests.
//! * **Admission control** — the queue of not-yet-started jobs is bounded.
//!   A request whose new jobs would push it past the limit is rejected
//!   atomically (nothing partially enqueued) with [`Submission::Busy`],
//!   so one over-deep client cannot balloon the process. A session run
//!   uses no bound.
//!
//! The scheduler also owns trace lifetime. A request's fresh jobs queue
//! bench-major, so the jobs that read one oracle trace run back to back,
//! and each worker keeps the trace of the job it just ran until it takes a
//! job on a different trace. A trace therefore lives while some worker
//! runs (or last ran) one of its jobs: live traces are bounded by the
//! worker count, and a plan loads each trace once.
//!
//! Each request carries a typed [`Sink`]: it receives a [`SweepProgress`]
//! per delivered job, then the finished [`ResultSet`] with its [`Tally`]
//! (or a cancellation). The scheduler knows no wire format; `serve` turns
//! sink calls into JSON events, `Session::run` into its return value.
//!
//! The scheduler owns no threads: callers spawn [`Scheduler::worker`]
//! loops on a pool (so `--jobs` governs concurrency) and submit beside
//! them. All scheduler methods are safe to call from any thread.
//!
//! Lock order (strict, deadlock-free): scheduler state → request state →
//! sink. Sink calls never hold the scheduler lock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use rcmc_emu::{DynInsn, TraceDb};
use serde::json::Value;

use crate::config::SimConfig;
use crate::resultset::ResultSet;
use crate::runner::{self, Budget, JobKey, ResultStore, RunResult, SweepProgress};

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
    /// The request was cancelled before completing; nothing follows.
    fn cancelled(&self) -> bool;
}

/// Per-request job accounting, delivered with the finished [`ResultSet`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// (config × bench) pairs the request covers.
    pub jobs: usize,
    /// Pairs simulated for this request.
    pub executed: usize,
    /// Pairs satisfied by joining another request's in-flight job.
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
    /// Resolved benchmarks.
    pub benches: Vec<String>,
    /// Instruction window of every job.
    pub budget: Budget,
    /// Receives the request's deliveries.
    pub sink: Box<dyn Sink + 's>,
}

/// Lifetime counters of one scheduler (reported by the `stats` op and in
/// [`crate::serve::ServeSummary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// (config × bench) pairs requested by accepted `run` requests.
    pub submitted: u64,
    /// Jobs actually simulated by the workers.
    pub executed: u64,
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
    /// The configuration to simulate (any subscriber's copy — equal keys
    /// imply bit-identical results).
    cfg: SimConfig,
    /// Running jobs survive cancellation; queued ones don't.
    running: bool,
    subscribers: Vec<Arc<Request<'s>>>,
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

/// The trace a worker holds between jobs, with the `(bench, trace_len)`
/// it was requested at.
type Held = Option<((String, u64), Arc<Vec<DynInsn>>)>;

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

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> SchedulerStats {
        lock(&self.state).stats
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
            benches,
            budget,
            sink,
        } = run;
        // Memo pass first, without the scheduler lock: store reads touch
        // the disk and must not serialize the whole service. Fresh jobs
        // are collected bench-major, so the jobs sharing a trace queue
        // back to back.
        let mut rows: Vec<RunResult> = Vec::new();
        let mut pending: Vec<(JobKey, SimConfig)> = Vec::new();
        for bench in &benches {
            for cfg in &cfgs {
                let key = JobKey::of(cfg, bench, &budget);
                match store.load(&key.config, bench, &budget) {
                    Some(hit) => rows.push(hit),
                    None => pending.push((key, cfg.clone())),
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
                .filter(|(key, _)| !st.jobs.contains_key(key))
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
            for (key, cfg) in pending {
                match st.jobs.get_mut(&key) {
                    // Identical job already queued or running: subscribe.
                    Some(job) => {
                        job.subscribers.push(req.clone());
                        coalesced += 1;
                    }
                    None => {
                        st.jobs.insert(
                            key.clone(),
                            Job {
                                cfg,
                                running: false,
                                subscribers: vec![req.clone()],
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

    /// One worker loop: pop jobs, simulate (memoized via the store, traces
    /// via the shared `db` handle), and deliver the row to every
    /// subscriber. Returns when the scheduler is closed and the queue is
    /// drained.
    ///
    /// The worker keeps the trace of its last job until it takes a job on
    /// a different trace; then it drops the old trace before loading the
    /// new one, and loads only if the store misses.
    pub fn worker(&self, store: &ResultStore, db: Option<&TraceDb>) {
        let mut held: Held = None;
        while let Some((key, cfg)) = self.next_job(&mut held) {
            let r = runner::run_pair_with(&cfg, &key.bench, &key.budget, store, || {
                let len = key.budget.trace_len();
                let (_, trace) = held.get_or_insert_with(|| {
                    let trace = runner::cached_trace_via(&key.bench, len, db);
                    ((key.bench.clone(), len), trace)
                });
                Arc::clone(trace)
            });
            let job = {
                let mut st = lock(&self.state);
                st.stats.executed += 1;
                // Cancellation never removes a running job, so the entry
                // is still there (possibly with no subscribers left).
                st.jobs.remove(&key).expect("running job stays registered")
            };
            for sub in &job.subscribers {
                self.deliver(sub, &key.bench, &r);
            }
        }
    }

    /// Cancel every live request whose id equals `target`. Returns
    /// `(found, dropped)`: whether any live request matched, and how many
    /// queued jobs were dropped (jobs other requests still subscribe to —
    /// and running jobs — are kept). Each cancelled request's sink hears
    /// [`Sink::cancelled`] once.
    pub fn cancel(&self, target: &Value) -> (bool, usize) {
        let victims: Vec<Arc<Request<'s>>> = {
            let st = lock(&self.state);
            st.requests
                .iter()
                .filter(|r| &r.id == target)
                .cloned()
                .collect()
        };
        self.cancel_requests(victims)
    }

    /// Cancel every live request (client EOF and stream-desync path).
    /// Returns the number of queued jobs dropped.
    pub fn cancel_all(&self) -> usize {
        let victims: Vec<Arc<Request<'s>>> = lock(&self.state).requests.clone();
        self.cancel_requests(victims).1
    }

    fn cancel_requests(&self, victims: Vec<Arc<Request<'s>>>) -> (bool, usize) {
        if victims.is_empty() {
            return (false, 0);
        }
        let mut cancelled: Vec<Arc<Request<'s>>> = Vec::new();
        let mut dropped = 0usize;
        {
            let mut st = lock(&self.state);
            for req in victims {
                let mut rs = lock(&req.state);
                // A delivery may have finalized the request between the
                // lookup and here; `done`/`cancelled` settle the race.
                if rs.done || rs.cancelled {
                    continue;
                }
                rs.cancelled = true;
                drop(rs);
                cancelled.push(req);
            }
            if !cancelled.is_empty() {
                let dead: Vec<JobKey> = st
                    .jobs
                    .iter_mut()
                    .filter_map(|(key, job)| {
                        job.subscribers
                            .retain(|s| !cancelled.iter().any(|v| Arc::ptr_eq(s, v)));
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
                st.requests
                    .retain(|r| !cancelled.iter().any(|v| Arc::ptr_eq(r, v)));
            }
        }
        for req in &cancelled {
            self.check(req.sink.cancelled());
        }
        (!cancelled.is_empty(), dropped)
    }

    /// Pop the next runnable job, waiting while the queue is empty, until
    /// the scheduler is closed and drained. Purges all queued work first
    /// whenever the client has disconnected.
    ///
    /// When the job reads another trace than `held`, the old trace is
    /// dropped (after the lock is released) and `held` takes the new trace
    /// if another worker holds it. Taking it under the lock means no
    /// holder drops it in between: a holder only drops a trace when it
    /// takes a job on another trace, and bench-major order pops such jobs
    /// after this one.
    fn next_job(&self, held: &mut Held) -> Option<(JobKey, SimConfig)> {
        let mut st = lock(&self.state);
        let (key, cfg) = 'pop: loop {
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
                let cfg = job.cfg.clone();
                st.queued -= 1;
                break 'pop (key, cfg);
            }
            if st.closed {
                return None;
            }
            st = self.work.wait(st).unwrap_or_else(|e| e.into_inner());
        };
        let want = (key.bench.clone(), key.budget.trace_len());
        let stale = if held.as_ref().is_some_and(|(k, _)| *k == want) {
            None
        } else {
            let live = runner::live_trace(&want.0, want.1).map(|t| (want, t));
            std::mem::replace(held, live)
        };
        drop(st);
        drop(stale);
        Some((key, cfg))
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
    fn deliver(&self, req: &Arc<Request<'s>>, bench: &str, r: &RunResult) {
        let complete = {
            let mut rs = lock(&req.state);
            if rs.cancelled || rs.done {
                return;
            }
            rs.rows.push(r.clone());
            rs.finished += 1;
            // Reported under the request lock so `finished` is strictly
            // increasing at the sink.
            let progress = SweepProgress {
                label: &req.label,
                finished: rs.finished,
                total: rs.total,
                memoized: rs.memoized,
                elapsed_s: req.started.elapsed().as_secs_f64(),
                config: &r.config,
                bench,
            };
            self.check(req.sink.progress(&progress));
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
