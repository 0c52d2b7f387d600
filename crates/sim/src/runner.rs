//! Run (configuration × benchmark) pairs with trace sharing and disk-backed
//! result memoization.
//!
//! [`run_pair`] is one job: probe the store, load the oracle trace (live
//! in memory → on-disk [`TraceDb`] → emulator, [`cached_trace_via`]),
//! simulate, [`reduce_metrics`], persist. Grids of jobs run on the
//! scheduler ([`crate::scheduler`]), which both
//! [`crate::session::Session::run`] and `rcmc serve` drive; there the
//! workers hold the traces and hand them to each job, and a trace lives
//! only while some worker holds it. Every simulation is independent and
//! traces are shared read-only, so results are bit-identical at any
//! worker count, and every finished pair is durably memoized the moment it
//! completes (an interrupted run resumes where it stopped).
//!
//! The [`ResultStore`] is sharded per configuration
//! (`target/rcmc-results/<config>/<key>.json`), so huge sweeps never pile
//! thousands of files into one directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rcmc_core::Core;
use rcmc_emu::{trace_built, DynInsn, TraceCache, TraceCacheStats, TraceDb};
use rcmc_workloads::benchmark;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;

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
    /// regardless of later env mutation.
    fn default() -> Self {
        static DEFAULT: OnceLock<Budget> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            let measure = std::env::var("RCMC_INSTRS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(200_000);
            let warmup = std::env::var("RCMC_WARMUP")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(30_000);
            Budget { warmup, measure }
        })
    }
}

impl Budget {
    /// Dynamic instructions a run with this budget needs in its trace:
    /// warmup + measure, plus [`rcmc_core::RUN_AHEAD`] for what fetch
    /// reads ahead of commit and commit overshoots the budget (every
    /// configuration that validates fits it). The length is part of the
    /// trace-store key.
    pub fn trace_len(&self) -> u64 {
        self.warmup + self.measure + rcmc_core::RUN_AHEAD
    }
}

/// Worker count for sweeps: `RCMC_JOBS` if set to a positive integer, else
/// the machine's available parallelism. Read once and memoized.
pub fn default_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        std::env::var("RCMC_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(rayon::default_num_threads)
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

/// The process-wide oracle-trace registry. It owns no trace memory: the
/// jobs holding a trace keep it alive, and every concurrent requester of
/// a held trace shares it (traces are identical across configurations),
/// within a run and across serve requests. Its counters are the
/// process-wide build and decode tallies.
static TRACES: TraceCache = TraceCache::new();

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

/// The process-default on-disk trace store ([`TraceDb`]): the workspace's
/// `target/rcmc-traces`, overridable with `RCMC_TRACE_DIR=<dir>` and
/// disabled entirely with `RCMC_TRACE_DIR=off` (or `none`/`0`/empty).
/// Consulted once and memoized. Sessions can override per-instance with
/// [`crate::session::Session::with_trace_store`].
pub fn default_trace_db() -> Option<&'static TraceDb> {
    static DB: OnceLock<Option<TraceDb>> = OnceLock::new();
    DB.get_or_init(|| {
        let dir = match std::env::var("RCMC_TRACE_DIR") {
            Ok(v) if matches!(v.trim(), "" | "off" | "none" | "0") => return None,
            Ok(v) => PathBuf::from(v),
            Err(_) => target_dir().join("rcmc-traces"),
        };
        Some(TraceDb::at(dir))
    })
    .as_ref()
}

/// Materialization counters of the process-wide trace cache: how many
/// traces were freshly emulated vs decoded from an on-disk store (what
/// `rcmc plan run` reports and the CI warm-start check greps), and the
/// traces jobs hold right now.
pub fn trace_cache_stats() -> TraceCacheStats {
    TRACES.stats()
}

/// In-memory bytes of the traces jobs hold right now.
pub fn trace_cache_bytes() -> usize {
    TRACES.bytes()
}

/// The trace of `bench` at `len` instructions if a job holds it; never
/// loads anything.
pub(crate) fn live_trace(bench: &str, len: u64) -> Option<Arc<Vec<DynInsn>>> {
    TRACES.get(bench, len)
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

/// Fetch (or build) the oracle trace for `bench` with `len` instructions,
/// using the process-default trace store as the disk fallthrough. The
/// trace stays in memory only while the caller (or another holder) keeps
/// the returned `Arc`.
pub fn cached_trace(bench: &str, len: u64) -> Arc<Vec<DynInsn>> {
    cached_trace_via(bench, len, default_trace_db())
}

/// [`cached_trace`] against an explicit trace store (`None` = fully
/// in-memory). Suite benchmarks fall through live → `db` → emulator;
/// names that are not in the suite resolve to **imported traces**: the
/// longest trace stored under that name is used regardless of `len`
/// (externally captured workloads have a fixed length — a shorter trace
/// simply ends the run early, exactly like a program that halts).
///
/// Panics if `bench` is neither a suite benchmark nor a stored trace;
/// callers reject such names first with [`check_workload`].
pub fn cached_trace_via(bench: &str, len: u64, db: Option<&TraceDb>) -> Arc<Vec<DynInsn>> {
    if let Some(b) = benchmark(bench) {
        return TRACES.get_or_build_via(bench, len, db, || {
            trace_built(|| b.build(), len as usize)
                .unwrap_or_else(|e| panic!("{bench} failed to emulate: {e}"))
        });
    }
    let stored = db.map(|d| d.lens_of(bench)).unwrap_or_default();
    let Some(&best) = stored.last() else {
        panic!("unknown workload '{bench}' (not in the suite or the trace store)");
    };
    TRACES.get_or_build_via(bench, best, db, || {
        // Unreachable unless the file vanished between `lens_of` and here;
        // there is no emulator path for imported workloads.
        panic!("imported trace '{bench}' ({best} insns) disappeared from the trace store")
    })
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
                    eprintln!(
                        "rcmc: warning: failed to persist result to {}: {e} \
                         (continuing without memoization)",
                        p.display()
                    );
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

/// Progress of one run, reported after each executed (non-memoized) job.
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
            eprintln!(
                "\r  [{tag}{n}/{n}] all pairs memoized  (done)              ",
                n = self.memoized
            );
            return;
        }
        let done = self.finished >= self.total;
        if done {
            eprint!(
                "\r  [{}{}/{}] {} × {}  (done)              ",
                tag,
                self.finished + self.memoized,
                self.total + self.memoized,
                self.config,
                self.bench,
            );
            eprintln!();
        } else {
            eprint!(
                "\r  [{}{}/{}] {} × {}  (ETA {:.0}s)              ",
                tag,
                self.finished + self.memoized,
                self.total + self.memoized,
                self.config,
                self.bench,
                self.eta_s()
            );
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

/// Simulate one (configuration × benchmark) pair over `trace`, returning
/// the raw counters (no memoization, no reduction).
fn simulate_stats(cfg: &SimConfig, budget: &Budget, trace: &[DynInsn]) -> rcmc_core::Stats {
    let mut core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, trace);
    let stats = core.run_with_warmup(budget.warmup, budget.measure);
    // The trace is cut to what a run can read (`Budget::trace_len`), so a
    // run that stops short of its window must have ended on the program's
    // halt or on a trace that was shorter than the cut to begin with.
    debug_assert!(
        core.stats().committed >= budget.warmup + budget.measure
            || core.halted()
            || (trace.len() as u64) < budget.trace_len(),
        "{}: run stopped at the trimmed trace end ({} of {} insns committed)",
        cfg.name,
        core.stats().committed,
        budget.warmup + budget.measure
    );
    stats
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

/// Simulate one (configuration × benchmark) pair, memoized. `db` is the
/// oracle-trace fallthrough the run materializes its trace against
/// (`None` = in-memory only).
pub fn run_pair(
    cfg: &SimConfig,
    bench: &str,
    budget: &Budget,
    store: &ResultStore,
    db: Option<&TraceDb>,
) -> RunResult {
    run_pair_with(cfg, bench, budget, store, || {
        cached_trace_via(bench, budget.trace_len(), db)
    })
}

/// [`run_pair`] over a trace its caller supplies: `trace` is called only
/// when the store misses, so a memoized pair loads no trace. The scheduler
/// workers pass the trace they hold.
pub(crate) fn run_pair_with(
    cfg: &SimConfig,
    bench: &str,
    budget: &Budget,
    store: &ResultStore,
    trace: impl FnOnce() -> Arc<Vec<DynInsn>>,
) -> RunResult {
    let key_name = store_name(cfg);
    if let Some(hit) = store.load(&key_name, bench, budget) {
        return hit;
    }
    let stats = simulate_stats(cfg, budget, &trace());
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
    fn trace_cache_reuses() {
        let a = cached_trace("gzip", 5000);
        let b = cached_trace("gzip", 5000);
        assert!(Arc::ptr_eq(&a, &b));
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
