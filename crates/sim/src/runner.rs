//! Run (configuration × benchmark) pairs with disk-backed result
//! memoization.
//!
//! [`run_pair`] is one job: probe the store, simulate, [`reduce_metrics`],
//! persist. The job streams its oracle trace through the core's ring: a
//! suite benchmark is emulated as the core fetches, and an imported trace
//! is decoded from the on-disk [`TraceDb`] and replayed. No job holds a
//! suite trace and nothing is shared between jobs. Grids of jobs run on
//! the scheduler ([`crate::scheduler`]), which both
//! [`crate::session::Session::run`] and `rcmc serve` drive. Every
//! simulation is independent, so results are bit-identical at any worker
//! count, and every finished pair is durably memoized the moment it
//! completes (an interrupted run resumes where it stopped).
//!
//! [`cached_trace`] materializes a whole trace, for the callers that need
//! one: the pipeline view, the oracles and the tests.
//!
//! The [`ResultStore`] is sharded per configuration
//! (`target/rcmc-results/<config>/<key>.json`), so huge sweeps never pile
//! thousands of files into one directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rcmc_core::Core;
use rcmc_emu::{trace_built, Trace, TraceDb, TraceSource};
use rcmc_workloads::benchmark;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;

/// Write to stderr, ignoring write errors: a status line or warning that
/// cannot be shown (stderr closed or full) is dropped, never a panic.
/// Everything this crate and the `rcmc` CLI print to stderr goes through
/// here.
pub fn write_err(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let _ = std::io::stderr().lock().write_fmt(args);
}

/// Bump when the timing model changes in any way that affects results;
/// invalidates every memoized run.
pub const MODEL_VERSION: u32 = 5;

/// Instruction budget for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Budget {
    /// Committed instructions discarded as warm-up.
    pub warmup: u64,
    /// Committed instructions measured.
    pub measure: u64,
}

impl Default for Budget {
    /// Reads `RCMC_INSTRS` (measurement window) and `RCMC_WARMUP` from the
    /// environment; defaults: 200k measured after 30k warm-up. The
    /// environment is consulted once per process and the result memoized, so
    /// every caller (and every worker thread) sees one consistent window
    /// regardless of later env mutation. Panics on a set value
    /// [`env_count`] rejects (the CLI refuses one before running).
    fn default() -> Self {
        static DEFAULT: OnceLock<Budget> = OnceLock::new();
        *DEFAULT.get_or_init(|| Budget {
            warmup: env_or("RCMC_WARMUP", 0, 30_000),
            measure: env_or("RCMC_INSTRS", 1, 200_000),
        })
    }
}

/// Environment variable `var` as a whole number of at least `min`:
/// `Ok(None)` when unset, an error naming the variable and its value when
/// set to anything else (surrounding whitespace is ignored). The one
/// parse behind [`default_jobs`], [`Budget::default`] and the CLI's
/// up-front check of `RCMC_JOBS`, `RCMC_INSTRS` and `RCMC_WARMUP`.
pub fn env_count(var: &str, min: u64) -> Result<Option<u64>, String> {
    let raw = match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => return Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
        Ok(raw) => raw,
    };
    match raw.trim().parse::<u64>() {
        Ok(n) if n >= min => Ok(Some(n)),
        _ => Err(format!(
            "{var} must be at least {min} (a whole number), got '{raw}'"
        )),
    }
}

/// [`env_count`] with `default` for an unset variable; panics on a bad one.
fn env_or(var: &str, min: u64, default: u64) -> u64 {
    env_count(var, min)
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(default)
}

impl Budget {
    /// Dynamic instructions a materialized trace needs for a run with this
    /// budget: warmup + measure, plus [`rcmc_core::RUN_AHEAD`] for what
    /// fetch reads ahead of commit and commit overshoots the budget (every
    /// configuration that validates fits it). The length is part of the
    /// trace-store key.
    pub fn trace_len(&self) -> u64 {
        self.warmup + self.measure + rcmc_core::RUN_AHEAD
    }
}

/// Worker count for sweeps: `RCMC_JOBS`, else the machine's available
/// parallelism. Read once and memoized; panics on a set value
/// [`env_count`] rejects (the CLI refuses one before running).
pub fn default_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        env_or("RCMC_JOBS", 1, cores as u64) as usize
    })
}

/// The per-run metrics every figure draws from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Configuration name.
    pub config: String,
    /// Benchmark name.
    pub bench: String,
    /// FP-suite member?
    pub fp: bool,
    /// Instructions per cycle (Figure 6 input).
    pub ipc: f64,
    /// Communications per committed instruction (Figure 7).
    pub comms_per_insn: f64,
    /// Mean hops per communication (Figure 8).
    pub dist_per_comm: f64,
    /// Mean bus-wait cycles per communication (Figure 9).
    pub wait_per_comm: f64,
    /// Mean NREADY per cycle (Figure 10).
    pub nready: f64,
    /// Per-cluster dispatch shares (Figure 11).
    pub dispatch_shares: Vec<f64>,
    /// Conditional-branch misprediction rate.
    pub branch_miss_rate: f64,
    /// Committed instructions measured.
    pub committed: u64,
    /// Cycles in the measurement window.
    pub cycles: u64,
}

/// Suite traces this process emulated, streamed or materialized.
static EMULATED: AtomicU64 = AtomicU64::new(0);
/// Imported traces this process loaded from a trace store.
static LOADED: AtomicU64 = AtomicU64::new(0);

/// Where the default stores live: `CARGO_TARGET_DIR`, else the workspace's
/// `target/`.
fn target_dir() -> PathBuf {
    std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        })
}

/// The process-default store of imported traces ([`TraceDb`]): the
/// workspace's `target/rcmc-traces`, or `RCMC_TRACE_DIR=<dir>` (an empty
/// value counts as unset). Consulted once and memoized. Sessions can
/// override it per instance with
/// [`crate::session::Session::with_trace_store`].
pub fn default_trace_db() -> &'static TraceDb {
    static DB: OnceLock<TraceDb> = OnceLock::new();
    DB.get_or_init(|| {
        TraceDb::at(
            std::env::var_os("RCMC_TRACE_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
                .unwrap_or_else(|| target_dir().join("rcmc-traces")),
        )
    })
}

/// Where this process's traces came from ([`trace_cache_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Suite traces emulated: one per executed suite job, plus one per
    /// materialized suite trace.
    pub built: u64,
    /// Imported traces decoded from a trace store.
    pub db_hits: u64,
}

/// How many traces this process has emulated (`built`) and decoded from a
/// trace store (`db_hits`, imported traces only). What `rcmc plan run`
/// reports and CI greps.
pub fn trace_cache_stats() -> TraceCounts {
    TraceCounts {
        built: EMULATED.load(Ordering::Relaxed),
        db_hits: LOADED.load(Ordering::Relaxed),
    }
}

/// Always 0: no trace is cached. A job streams its trace through the
/// core's ring, and a materialized trace lives only while its caller
/// holds it.
pub fn trace_cache_bytes() -> usize {
    0
}

/// Check that `name` resolves to a runnable workload against `db`: a suite
/// benchmark, or an imported trace stored under that name. Plans and
/// `rcmc run` reject an unknown workload with this message before anything
/// simulates.
pub fn check_workload(name: &str, db: Option<&TraceDb>) -> Result<(), String> {
    if benchmark(name).is_some() || db.is_some_and(|d| !d.lens_of(name).is_empty()) {
        Ok(())
    } else {
        Err(format!(
            "unknown benchmark '{name}' (see `rcmc list`; imported traces: `rcmc trace list`)"
        ))
    }
}

/// Materialize the oracle trace of `bench` with `len` instructions,
/// resolving imported traces against the process-default trace store.
/// Nothing is cached: every call emulates or decodes afresh.
pub fn cached_trace(bench: &str, len: u64) -> Arc<Trace> {
    cached_trace_via(bench, len, Some(default_trace_db()))
}

/// [`cached_trace`] against an explicit trace store. A suite benchmark is
/// always emulated (emulating beats decoding, `BENCH_trace.json`) and
/// never reads or writes `db`; any other name is an imported trace,
/// decoded from `db` as a job decodes it.
///
/// Panics if `bench` is neither a suite benchmark nor a stored trace;
/// callers reject such names first with [`check_workload`].
pub fn cached_trace_via(bench: &str, len: u64, db: Option<&TraceDb>) -> Arc<Trace> {
    let Some(b) = benchmark(bench) else {
        return load_imported(bench, db);
    };
    EMULATED.fetch_add(1, Ordering::Relaxed);
    Arc::new(
        trace_built(|| b.build(), len as usize)
            .unwrap_or_else(|e| panic!("{bench} failed to emulate: {e}")),
    )
}

/// The **imported trace** `bench`, decoded from `db` with its checksum
/// verified: the longest trace stored under that name, whatever the
/// budget (externally captured workloads have a fixed length — a shorter
/// trace simply ends the run early, exactly like a program that halts).
/// Panics if `db` holds no trace of that name or the file went bad.
fn load_imported(bench: &str, db: Option<&TraceDb>) -> Arc<Trace> {
    let Some((db, best)) = db.and_then(|d| Some((d, d.lens_of(bench).last().copied()?))) else {
        panic!("unknown workload '{bench}' (not in the suite or the trace store)");
    };
    // `None` only if the file vanished or went bad since `lens_of`; there
    // is no emulator path for imported workloads.
    let trace = db.load(bench, best).unwrap_or_else(|| {
        panic!("imported trace '{bench}' ({best} insns) disappeared from the trace store")
    });
    LOADED.fetch_add(1, Ordering::Relaxed);
    trace
}

/// Disk-backed memoization of [`RunResult`]s.
#[derive(Debug)]
pub struct ResultStore {
    dir: Option<PathBuf>,
}

/// Warn at most once per process when persisting fails (an unwritable store
/// degrades to recomputation, not an error storm).
static SAVE_WARNED: AtomicBool = AtomicBool::new(false);

/// Distinguishes concurrent writers' temp files within one process; the pid
/// distinguishes processes.
static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);

impl ResultStore {
    /// Store under the workspace's `target/rcmc-results` (created on
    /// demand). Anchored to this crate's manifest so every binary in the
    /// workspace shares one store regardless of its working directory.
    pub fn open_default() -> Self {
        ResultStore {
            dir: Some(target_dir().join("rcmc-results")),
        }
    }

    /// A store rooted at `dir` (tests, alternative layouts).
    pub fn at(dir: PathBuf) -> Self {
        ResultStore { dir: Some(dir) }
    }

    /// A store that never persists (tests).
    pub fn ephemeral() -> Self {
        ResultStore { dir: None }
    }

    /// Memoization key: model version + configuration + benchmark + window.
    pub fn key(config: &str, bench: &str, budget: &Budget) -> String {
        format!(
            "v{}_{}_{}_{}w{}m",
            MODEL_VERSION, config, bench, budget.warmup, budget.measure
        )
    }

    /// Sharded location: one subdirectory per configuration, so a huge sweep
    /// spreads its files across shards and per-config discovery is one
    /// small directory listing.
    fn shard_path(&self, config: &str, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(config).join(format!("{key}.json")))
    }

    /// Load a memoized result from its configuration shard, if present
    /// and readable.
    pub fn load(&self, config: &str, bench: &str, budget: &Budget) -> Option<RunResult> {
        let key = Self::key(config, bench, budget);
        let bytes = std::fs::read(self.shard_path(config, &key)?).ok()?;
        serde_json::from_slice(&bytes).ok()
    }

    /// Persist `r` into its configuration shard via temp-file + atomic
    /// rename, so concurrent writers (threads or processes) can never leave
    /// a torn JSON file. Returns whether the result is now durably on disk;
    /// the first failure warns on stderr with the path, later ones stay
    /// quiet.
    pub fn save(&self, config: &str, bench: &str, budget: &Budget, r: &RunResult) -> bool {
        let key = Self::key(config, bench, budget);
        let Some(p) = self.shard_path(config, &key) else {
            return false;
        };
        match Self::write_atomic(&p, r) {
            Ok(()) => true,
            Err(e) => {
                if !SAVE_WARNED.swap(true, Ordering::Relaxed) {
                    write_err(format_args!(
                        "rcmc: warning: failed to persist result to {}: {e} \
                         (continuing without memoization)\n",
                        p.display()
                    ));
                }
                false
            }
        }
    }

    fn write_atomic(p: &Path, r: &RunResult) -> std::io::Result<()> {
        if let Some(parent) = p.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let bytes = serde_json::to_vec_pretty(r)
            .map_err(|e| std::io::Error::other(format!("serialize: {e:?}")))?;
        let tmp = p.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, p).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

/// One run's progress, reported after each executed (non-memoized) job.
/// Callbacks are serialized: `finished` is strictly increasing, so the
/// `finished == total` event is always the last one delivered. A run
/// satisfied entirely from the store delivers exactly one event with
/// `total == 0` (and empty `config`/`bench`) so consumers still observe
/// completion.
#[derive(Clone, Copy, Debug)]
pub struct SweepProgress<'a> {
    /// Stable label of the run this event belongs to (the plan name, or a
    /// `plan#request-id` tag under `rcmc serve`).
    /// [`SweepProgress::eprint_status`] renders it when non-empty so
    /// interleaved progress from concurrent requests stays attributable.
    pub label: &'a str,
    /// Jobs finished so far (including this one).
    pub finished: usize,
    /// Jobs this sweep has to execute (memoized pairs are not counted).
    pub total: usize,
    /// Pairs satisfied from the result store without executing anything;
    /// folded into the displayed completion so `rcmc figures` progress
    /// reflects the whole sweep, not just the jobs that happened to miss.
    pub memoized: usize,
    /// Wall-clock seconds since the run was submitted (drives the ETA
    /// estimate).
    pub elapsed_s: f64,
    /// Configuration of the job that just finished.
    pub config: &'a str,
    /// Benchmark of the job that just finished.
    pub bench: &'a str,
}

impl SweepProgress<'_> {
    /// Seconds left at the observed per-job rate (executed jobs only —
    /// memoized pairs cost nothing and would skew the rate). Always finite:
    /// with nothing executed yet — or nothing left, including the
    /// all-memoized sweep's `total == 0` terminal event, where the naive
    /// `elapsed / finished` ratio is 0/0 — there is no rate to extrapolate
    /// and the answer is 0.
    pub fn eta_s(&self) -> f64 {
        if self.finished == 0 || self.total <= self.finished {
            return 0.0;
        }
        let eta = self.elapsed_s / self.finished as f64 * (self.total - self.finished) as f64;
        if eta.is_finite() {
            eta
        } else {
            0.0
        }
    }

    /// Standard stderr status line: rewritten in place per job, completed
    /// with a newline after the last one (shared by the CLI and examples).
    /// Counts fold memoized hits in, so the fraction is overall sweep
    /// completion; the ETA covers the remaining executed jobs. A sweep that
    /// executed nothing (every pair memoized, `total == 0`) renders `done`
    /// rather than a garbage ETA.
    pub fn eprint_status(&self) {
        let tag = if self.label.is_empty() {
            String::new()
        } else {
            format!("{} ", self.label)
        };
        if self.total == 0 {
            write_err(format_args!(
                "\r  [{tag}{n}/{n}] all pairs memoized  (done)              \n",
                n = self.memoized
            ));
            return;
        }
        let (n, of) = (self.finished + self.memoized, self.total + self.memoized);
        let (config, bench) = (self.config, self.bench);
        if self.finished >= self.total {
            write_err(format_args!(
                "\r  [{tag}{n}/{of}] {config} × {bench}  (done)              \n"
            ));
        } else {
            write_err(format_args!(
                "\r  [{tag}{n}/{of}] {config} × {bench}  (ETA {:.0}s)              ",
                self.eta_s()
            ));
        }
    }
}

/// A per-job progress callback (invoked from worker threads, hence `Sync`).
pub type ProgressFn<'a> = &'a (dyn Fn(&SweepProgress<'_>) + Sync);

/// The name `cfg`'s results are memoized under: the display name, plus a
/// DCOUNT-threshold tag whenever the threshold differs from the historical
/// paper-calibrated 16.0. Per-topology recalibrations change simulation
/// results *without* a `MODEL_VERSION` bump (the Ring/Conv goldens must
/// stay bit-identical, so the version cannot move), and the tag keeps rows
/// memoized under an older calibration from silently leaking into sweeps —
/// e.g. `Xbar_8clus_1bus_2IW` results computed at threshold 16 stay dead
/// once the calibrated default became 8.
pub fn store_name(cfg: &SimConfig) -> String {
    if cfg.core.dcount_threshold == 16.0 {
        cfg.name.clone()
    } else {
        format!("{}~dc{}", cfg.name, cfg.core.dcount_threshold)
    }
}

/// The coalescing/memoization identity of one simulation job.
///
/// Two jobs with equal keys are guaranteed bit-identical [`RunResult`]s:
/// the key is exactly what [`ResultStore`] memoizes under — the
/// [`store_name`] (display name plus any DCOUNT-threshold tag), the
/// benchmark, and the instruction [`Budget`]. The serve scheduler
/// ([`crate::scheduler`]) uses it to run each distinct job once no matter
/// how many concurrent requests ask for it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// Store identity of the configuration ([`store_name`]).
    pub config: String,
    /// Benchmark name.
    pub bench: String,
    /// Instruction budget of the run.
    pub budget: Budget,
}

impl JobKey {
    /// The key `(cfg, bench, budget)` memoizes and coalesces under.
    pub fn of(cfg: &SimConfig, bench: &str, budget: &Budget) -> JobKey {
        JobKey {
            config: store_name(cfg),
            bench: bench.to_string(),
            budget: *budget,
        }
    }
}

/// Simulate one (configuration × benchmark) pair, returning the raw
/// counters (no memoization, no reduction). A suite benchmark is emulated
/// as the core fetches; an imported trace is loaded from `db` and
/// replayed.
fn simulate_stats(
    cfg: &SimConfig,
    bench: &str,
    budget: &Budget,
    db: Option<&TraceDb>,
) -> rcmc_core::Stats {
    let window = |mut core: Core<'_>| core.run_with_warmup(budget.warmup, budget.measure);
    let (core_cfg, mem, pred) = (cfg.core.clone(), cfg.mem, cfg.pred);
    match benchmark(bench) {
        Some(b) => {
            EMULATED.fetch_add(1, Ordering::Relaxed);
            let source = TraceSource::emulate(bench, &b.build());
            window(Core::streaming(core_cfg, mem, pred, source))
        }
        None => window(Core::new(core_cfg, mem, pred, &load_imported(bench, db))),
    }
}

/// The post-run metric reduction: fold raw [`rcmc_core::Stats`] (including
/// the per-cluster dispatch and NREADY aggregates) into the figure metrics.
/// Pure and deterministic — each job runs its own on whichever worker
/// simulated it, overlapped with other jobs' simulations.
pub fn reduce_metrics(cfg: &SimConfig, bench: &str, stats: &rcmc_core::Stats) -> RunResult {
    // Imported traces are not suite members; they count as INT workloads.
    let fp = benchmark(bench).is_some_and(|b| b.is_fp());
    RunResult {
        config: cfg.name.clone(),
        bench: bench.to_string(),
        fp,
        ipc: stats.ipc(),
        comms_per_insn: stats.comms_per_insn(),
        dist_per_comm: stats.dist_per_comm(),
        wait_per_comm: stats.wait_per_comm(),
        nready: stats.nready_per_cycle(),
        dispatch_shares: stats.dispatch_shares(cfg.core.n_clusters),
        branch_miss_rate: stats.branch_miss_rate(),
        committed: stats.committed,
        cycles: stats.cycles,
    }
}

/// Simulate one (configuration × benchmark) pair, memoized: a store hit
/// loads no trace. `db` is the store an imported workload's trace is
/// loaded from (`None`: suite benchmarks only).
pub fn run_pair(
    cfg: &SimConfig,
    bench: &str,
    budget: &Budget,
    store: &ResultStore,
    db: Option<&TraceDb>,
) -> RunResult {
    let key_name = store_name(cfg);
    if let Some(hit) = store.load(&key_name, bench, budget) {
        return hit;
    }
    let stats = simulate_stats(cfg, bench, budget, db);
    let result = reduce_metrics(cfg, bench, &stats);
    store.save(&key_name, bench, budget, &result);
    result
}

/// All 26 suite names.
pub fn all_bench_names() -> Vec<&'static str> {
    rcmc_workloads::suite().iter().map(|b| b.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::make;
    use rcmc_core::Topology;

    fn tiny_budget() -> Budget {
        Budget {
            warmup: 2_000,
            measure: 8_000,
        }
    }

    #[test]
    fn run_pair_produces_sane_metrics() {
        let cfg = make(Topology::Ring, 4, 2, 1);
        let store = ResultStore::ephemeral();
        let r = run_pair(&cfg, "swim", &tiny_budget(), &store, None);
        // Commit width can overshoot each window boundary by up to 7.
        assert!(
            (r.committed as i64 - 8_000).unsigned_abs() < 16,
            "committed {}",
            r.committed
        );
        assert!(r.ipc > 0.1 && r.ipc < 8.0, "IPC {}", r.ipc);
        assert_eq!(r.dispatch_shares.len(), 4);
        let total: f64 = r.dispatch_shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rcmc-test-{}", std::process::id()));
        let store = ResultStore::at(dir.clone());
        let cfg = make(Topology::Conv, 4, 2, 1);
        let r1 = run_pair(&cfg, "gzip", &tiny_budget(), &store, None);
        let r2 = run_pair(&cfg, "gzip", &tiny_budget(), &store, None);
        assert_eq!(r1, r2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_reports_persistence() {
        let dir = std::env::temp_dir().join(format!("rcmc-save-{}", std::process::id()));
        let store = ResultStore::at(dir.clone());
        let cfg = make(Topology::Conv, 4, 2, 1);
        let budget = tiny_budget();
        let r = run_pair(&cfg, "swim", &budget, &ResultStore::ephemeral(), None);
        assert!(
            store.save(&cfg.name, "swim", &budget, &r),
            "save to a writable dir must persist"
        );
        assert_eq!(store.load(&cfg.name, "swim", &budget).as_ref(), Some(&r));
        // No stray temp files left behind by the atomic-rename protocol.
        let shard = dir.join(&cfg.name);
        let leftovers: Vec<_> = std::fs::read_dir(&shard)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        // An ephemeral store persists nothing and says so.
        assert!(!ResultStore::ephemeral().save(&cfg.name, "swim", &budget, &r));
        // An unwritable "directory" (a file in the way) fails gracefully.
        let blocked = dir.join("blocked");
        std::fs::write(&blocked, b"not a dir").unwrap();
        assert!(!ResultStore::at(blocked.join("sub")).save(&cfg.name, "swim", &budget, &r));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn store_shards_by_configuration() {
        let dir = std::env::temp_dir().join(format!("rcmc-shard-{}", std::process::id()));
        let store = ResultStore::at(dir.clone());
        let budget = tiny_budget();
        let a = make(Topology::Ring, 4, 2, 1);
        let b = make(Topology::Conv, 4, 2, 1);
        let ra = run_pair(&a, "gzip", &budget, &store, None);
        let rb = run_pair(&b, "gzip", &budget, &store, None);
        // One subdirectory per configuration, no flat files at the root.
        for cfg in [&a, &b] {
            assert!(dir.join(&cfg.name).is_dir(), "missing shard {}", cfg.name);
        }
        let flat_json = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("json".as_ref()))
            .count();
        assert_eq!(flat_json, 0, "sharded saves must not write flat files");
        assert_eq!(store.load(&a.name, "gzip", &budget), Some(ra));
        assert_eq!(store.load(&b.name, "gzip", &budget), Some(rb));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn flat_file_at_store_root_is_a_miss() {
        // Only the configuration shard is consulted: a row sitting where
        // the pre-sharding layout put it is never read.
        let dir = std::env::temp_dir().join(format!("rcmc-flat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = ResultStore::at(dir.clone());
        let budget = tiny_budget();
        let cfg = make(Topology::Ring, 4, 2, 1);
        let r = run_pair(&cfg, "mcf", &budget, &ResultStore::ephemeral(), None);
        let key = ResultStore::key(&cfg.name, "mcf", &budget);
        let flat = dir.join(format!("{key}.json"));
        std::fs::write(&flat, serde_json::to_vec_pretty(&r).unwrap()).unwrap();
        assert_eq!(store.load(&cfg.name, "mcf", &budget), None);
        assert!(flat.is_file(), "a miss must not touch the flat file");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recalibrated_thresholds_get_their_own_store_keys() {
        // The Crossbar default threshold moved 16 -> 8 without a
        // MODEL_VERSION bump; its store identity must move with it.
        let xbar = make(Topology::Crossbar, 8, 2, 1);
        assert_eq!(store_name(&xbar), "Xbar_8clus_1bus_2IW~dc8");
        let ring = make(Topology::Ring, 8, 2, 1);
        assert_eq!(store_name(&ring), "Ring_8clus_1bus_2IW");
        // A stale row memoized under the display name (i.e. computed with
        // the old threshold) must not satisfy a sweep of the new config.
        let dir = std::env::temp_dir().join(format!("rcmc-thr-{}", std::process::id()));
        let store = ResultStore::at(dir.clone());
        let budget = tiny_budget();
        let fresh = run_pair(&xbar, "gzip", &budget, &ResultStore::ephemeral(), None);
        let mut stale = fresh.clone();
        stale.ipc = 999.0;
        assert!(store.save(&xbar.name, "gzip", &budget, &stale));
        let got = run_pair(&xbar, "gzip", &budget, &store, None);
        assert_eq!(got, fresh, "stale pre-recalibration row leaked in");
        // And the fresh row is now memoized under the tagged name.
        assert_eq!(
            store.load(&store_name(&xbar), "gzip", &budget).as_ref(),
            Some(&fresh)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = make(Topology::Ring, 8, 1, 1);
        let store = ResultStore::ephemeral();
        let a = run_pair(&cfg, "mcf", &tiny_budget(), &store, None);
        let b = run_pair(&cfg, "mcf", &tiny_budget(), &store, None);
        assert_eq!(a, b);
    }

    #[test]
    fn eta_is_finite_even_when_nothing_executed() {
        // The all-memoized sweep's terminal event: executed == 0, so the
        // naive elapsed/finished extrapolation would be 0/0 = NaN.
        let done = SweepProgress {
            label: "",
            finished: 0,
            total: 0,
            memoized: 7,
            elapsed_s: 0.0,
            config: "",
            bench: "",
        };
        assert_eq!(done.eta_s(), 0.0);
        // A mid-sweep event still extrapolates at the observed rate.
        let mid = SweepProgress {
            label: "",
            finished: 2,
            total: 4,
            memoized: 3,
            elapsed_s: 6.0,
            config: "c",
            bench: "b",
        };
        assert!((mid.eta_s() - 6.0).abs() < 1e-12, "eta {}", mid.eta_s());
        // The final per-job event has nothing left to estimate.
        let last = SweepProgress { finished: 4, ..mid };
        assert_eq!(last.eta_s(), 0.0);
    }

    #[test]
    fn all_memoized_sweep_still_reports_completion() {
        let dir = std::env::temp_dir().join(format!("rcmc-memo-{}", std::process::id()));
        let session = crate::session::Session::with_store(ResultStore::at(dir.clone()))
            .without_trace_store()
            .with_jobs(2);
        let cfg = make(Topology::Ring, 4, 2, 1);
        let plan = crate::plan::Plan::new("memo")
            .config_named(&cfg.name)
            .bench("gzip")
            .budget(tiny_budget());
        let events = std::sync::Mutex::new(Vec::<(usize, usize, usize)>::new());
        let cb = |p: &SweepProgress<'_>| {
            assert!(p.eta_s().is_finite(), "ETA must never be NaN/inf");
            assert_eq!(p.label, "memo");
            events
                .lock()
                .unwrap()
                .push((p.finished, p.total, p.memoized));
        };
        session.run_streaming(&plan, &cb).unwrap();
        let cold = std::mem::take(&mut *events.lock().unwrap());
        assert_eq!(
            cold.last(),
            Some(&(1, 1, 0)),
            "cold run must execute the pair: {cold:?}"
        );
        // Warm rerun: every pair memoized. Exactly one terminal event with
        // `total == 0` so consumers still observe completion.
        session.run_streaming(&plan, &cb).unwrap();
        let warm = events.lock().unwrap().clone();
        assert_eq!(warm, vec![(0, 0, 1)], "warm run events");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn budget_default_is_consistent_across_threads() {
        // The env parse is memoized behind a OnceLock, so every thread —
        // including ones racing on first use — must observe one value.
        // (Deliberately no env mutation here: set_var races with getenv in
        // a multithreaded test binary.)
        let vals: Vec<Budget> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(Budget::default)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(vals.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(vals[0], Budget::default());
    }
}
