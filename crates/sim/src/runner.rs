//! Run (configuration × benchmark) pairs with disk-backed result
//! memoization.
//!
//! [`run_pair`] is one job: probe the store, simulate, [`reduce_metrics`],
//! persist. Every job takes one path: the core streams its workload's
//! records through its ring ([`Workload::source`]) — a suite benchmark
//! emulated as the core fetches, an imported trace decoded from the file
//! its [`Workload`] holds open — and then checks how the stream ended
//! ([`rcmc_emu::TraceSource::finish`]). No job holds a whole trace and
//! nothing is shared between jobs. Grids of jobs run on the scheduler
//! ([`crate::scheduler`]), which both [`crate::session::Session::run`] and
//! `rcmc serve` drive. Every simulation is independent, so results are
//! bit-identical at any worker count, and every finished pair is durably
//! memoized the moment it completes (an interrupted run resumes where it
//! stopped).
//!
//! [`Workload::trace`] materializes a whole trace, for the callers that
//! need one: the oracles and the tests. The `rcmc` binary never does; its
//! pipeline view streams like a job ([`Workload::source`], then
//! [`Workload::finish`]).
//!
//! A row's INT/FP class comes from its [`Workload`] ([`Workload::fp`]):
//! a suite benchmark's, or the FP class flag of an imported trace file,
//! which the trace-store writer sets when a record reads or writes an FP
//! register.
//!
//! Which instructions a workload name means is decided once per request,
//! by [`Workload::resolve`], before anything is submitted: a suite
//! benchmark, or the name's one imported trace file ([`TraceDb::open`]),
//! held open. Keys, jobs and the store read that [`Workload`] and never
//! search the trace store again, so a request runs the traces it resolved
//! even if they are removed or re-imported later.
//! A damaged imported file still resolves (only its header is read), and
//! fails each job that streams it: the end-of-run check drains the rest
//! of the file, so damage past the records a run read fails it too, and
//! [`run_pair`] returns the error and stores no row.
//!
//! A row's one identity is what was simulated, never what it is called:
//! a [`JobKey`] hashes the resolved configuration ([`store_name`]), the
//! workload's content (a suite program's hash or an imported trace
//! file's checksum), the [`Budget`] and
//! [`MODEL_VERSION`]. The scheduler coalesces jobs under it and the
//! [`ResultStore`] files rows under it, sharded per configuration
//! (`target/rcmc-results/<config id>/<key>.json`), so huge sweeps never
//! pile thousands of files into one directory. Configuration names are
//! display labels only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rcmc_core::Core;
use rcmc_emu::{trace_built, OpenTrace, Trace, TraceDb, TraceSource, TRACE_VERSION};
use rcmc_workloads::{benchmark, Benchmark};
use serde::json::Value;
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
/// invalidates every memoized run. [`MODEL_HISTORY`] ties it to behaviour.
pub const MODEL_VERSION: u32 = 5;

/// `(version, canary digest)` of each model version since the digest
/// exists, oldest first. The digest is FNV-1a over the rows of a canary
/// grid: every topology × steering pair at 8 clusters, 1 bus, 2-wide, on
/// `gzip`, `mcf` and `fma3d` (one of the two suite programs whose window
/// forwards stores) with 500 warm-up and 1500 measured instructions. A
/// test recomputes it and fails unless the newest entry is
/// `(MODEL_VERSION, today's digest)` and no digest repeats, so a change
/// that moves any canary row cannot land without a bump and a new entry.
pub const MODEL_HISTORY: &[(u32, u64)] = &[(5, 0x978a_c31a_6364_44ec)];

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
    /// configuration that validates fits it). `rcmc trace record` records
    /// this many by default.
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
    /// Imported traces decoded from a trace store: one per executed
    /// imported-trace job, plus one per materialized imported trace.
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

/// What a workload name means: the instructions a run of it executes. A
/// suite benchmark, emulated afresh by each job that runs it, or an
/// imported trace, held open from [`Workload::resolve`] on. Resolving is
/// the one place a name is looked up; keys, jobs and
/// [`cached_trace_via`] read the resolved value. Cloning is cheap, and a
/// request holds no program or trace data.
#[derive(Clone, Debug)]
pub struct Workload(Source);

#[derive(Clone, Debug)]
enum Source {
    /// Only ever a suite member: [`program_id`] trusts the name.
    Suite(Benchmark),
    Imported(Arc<OpenTrace>),
}

impl Workload {
    /// Resolve `name`: a suite benchmark, else the one imported trace `db`
    /// holds under that name ([`TraceDb::open`]), whatever the budget — an
    /// externally captured workload has a fixed length, and a shorter
    /// trace ends the run early, exactly like a program that halts. Plans
    /// and `rcmc run` reject an unknown name, or a stored trace whose
    /// header is damaged, with this message before anything simulates.
    pub fn resolve(name: &str, db: Option<&TraceDb>) -> Result<Workload, String> {
        if let Some(b) = benchmark(name) {
            return Ok(Workload(Source::Suite(b)));
        }
        match db.map_or(Ok(None), |d| d.open(name)) {
            Ok(Some(t)) => Ok(Workload(Source::Imported(Arc::new(t)))),
            Ok(None) => Err(format!(
                "unknown benchmark '{name}' (see `rcmc list`; imported traces: `rcmc trace list`)"
            )),
            Err(e) => Err(format!("imported trace '{name}': {e}")),
        }
    }

    /// The name the workload was resolved from.
    pub fn name(&self) -> &str {
        match &self.0 {
            Source::Suite(b) => b.name,
            Source::Imported(t) => t.name(),
        }
    }

    /// The workload's INT/FP class: a suite benchmark's
    /// ([`Benchmark::is_fp`]), or an imported trace file's FP class flag
    /// ([`OpenTrace::fp`]; a file stored before the flag existed reads
    /// INT until it is re-imported).
    pub fn fp(&self) -> bool {
        match &self.0 {
            Source::Suite(b) => b.is_fp(),
            Source::Imported(t) => t.fp(),
        }
    }

    /// The content identity, the workload half of a [`JobKey`]: `p` + a
    /// hash of [`TRACE_VERSION`] and a suite benchmark's built program
    /// (the emulator is deterministic, so no trace has to exist), or `t` +
    /// the header checksum of the imported trace file held open.
    pub fn id(&self) -> String {
        match &self.0 {
            Source::Suite(b) => program_id(b),
            Source::Imported(t) => format!("t{:016x}", t.checksum()),
        }
    }

    /// The records a job streams through its core: the suite benchmark's
    /// program emulated, or the imported trace file decoded from the start
    /// ([`OpenTrace::stream`]). Nothing is cached: every call emulates or
    /// decodes afresh.
    pub fn source(&self) -> TraceSource<'_> {
        match &self.0 {
            Source::Suite(b) => {
                EMULATED.fetch_add(1, Ordering::Relaxed);
                TraceSource::emulate(&b.build())
            }
            Source::Imported(t) => {
                LOADED.fetch_add(1, Ordering::Relaxed);
                TraceSource::decode(t.stream())
            }
        }
    }

    /// The end-of-run check of a stream [`Workload::source`] gave
    /// ([`TraceSource::finish`]; a core hands its source back with
    /// `Core::into_source`): the error that ended it, if one did, naming
    /// the workload.
    pub fn finish(&self, source: TraceSource<'_>) -> Result<(), String> {
        source.finish().map_err(|e| self.failure(e))
    }

    /// Why a run of this workload failed, naming it: "`gzip` failed to
    /// emulate: …" or "imported trace '`ext`': …".
    fn failure(&self, e: impl std::fmt::Display) -> String {
        match &self.0 {
            Source::Suite(b) => format!("{} failed to emulate: {e}", b.name),
            Source::Imported(t) => format!("imported trace '{}': {e}", t.name()),
        }
    }

    /// Materialize the oracle trace: a suite benchmark emulated to `len`
    /// instructions, or the whole imported trace file, collected from the
    /// stream a job reads. Nothing is cached: every call emulates or
    /// decodes afresh. A failure is an error naming the workload.
    pub fn trace(&self, len: u64) -> Result<Trace, String> {
        match &self.0 {
            Source::Suite(b) => {
                EMULATED.fetch_add(1, Ordering::Relaxed);
                trace_built(|| b.build(), len as usize).map_err(|e| self.failure(e))
            }
            Source::Imported(t) => {
                LOADED.fetch_add(1, Ordering::Relaxed);
                t.load().map_err(|e| self.failure(e))
            }
        }
    }
}

/// [`Workload::trace`] of `bench` resolved against `db`, shared. A suite
/// benchmark is always emulated (emulating beats decoding,
/// `BENCH_trace.json`) and never reads or writes `db`.
///
/// Panics if `bench` is neither a suite benchmark nor a stored trace, or
/// its trace does not decode; callers reject unknown names first with
/// [`Workload::resolve`].
pub fn cached_trace_via(bench: &str, len: u64, db: Option<&TraceDb>) -> Arc<Trace> {
    let workload = Workload::resolve(bench, db).unwrap_or_else(|e| panic!("{e}"));
    Arc::new(workload.trace(len).unwrap_or_else(|e| panic!("{e}")))
}

/// 64-bit FNV-1a, the hash behind every content identity and row
/// checksum; `fnv(h, bytes)` continues hash `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a's offset basis: the hash of nothing.
const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// [`Workload::id`] of a suite benchmark: `p` + a hash of
/// [`TRACE_VERSION`] and its built program's instruction encodings and
/// data bytes, built and hashed once per process.
fn program_id(b: &Benchmark) -> String {
    static IDS: Mutex<BTreeMap<&str, u64>> = Mutex::new(BTreeMap::new());
    let ids = || IDS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&h) = ids().get(b.name) {
        return format!("p{h:016x}");
    }
    let p = b.build();
    let mut h = fnv(FNV_START, &TRACE_VERSION.to_le_bytes());
    h = fnv(h, &p.entry.to_le_bytes());
    h = fnv(h, &(p.insns.len() as u64).to_le_bytes());
    for insn in &p.insns {
        h = fnv(h, &rcmc_isa::encode(insn).to_le_bytes());
    }
    for seg in &p.data {
        h = fnv(h, &seg.addr.to_le_bytes());
        h = fnv(h, &(seg.bytes.len() as u64).to_le_bytes());
        h = fnv(h, &seg.bytes);
    }
    ids().insert(b.name, h);
    format!("p{h:016x}")
}

/// Disk-backed memoization of [`RunResult`]s, filed by [`JobKey`].
///
/// A row file holds the key it was simulated under (its [`JobKey`] text:
/// model version, configuration hash, workload identity, budget), an
/// FNV-1a checksum of the row's compact JSON, and the row. A file whose
/// key or checksum does not match — truncated, edited, bit-flipped, or
/// copied under another key's file name — is a miss, and the pair
/// simulates again.
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

    /// Where `key`'s row lives: its configuration's shard, one file per
    /// (model version, workload, window). `None` for an ephemeral store.
    fn path_of(&self, key: &JobKey) -> Option<PathBuf> {
        let b = key.budget;
        let file = format!(
            "v{MODEL_VERSION}_{}_{}w{}m.json",
            key.workload, b.warmup, b.measure
        );
        Some(self.dir.as_ref()?.join(&key.config).join(file))
    }

    /// The row of configuration `config` (a [`store_name`]) on suite
    /// benchmark `bench` at `budget`, if stored and intact. Any other name
    /// is a miss: an imported trace's row is addressed by the [`JobKey`]
    /// of its resolved [`Workload`], as the scheduler and [`run_pair`] do.
    pub fn load(&self, config: &str, bench: &str, budget: &Budget) -> Option<RunResult> {
        self.load_key(&JobKey::of_suite(config, bench, budget)?)
    }

    /// Persist `r` as the row of `(config, bench, budget)`, addressed as
    /// [`ResultStore::load`] addresses it (`false` for a name outside the
    /// suite).
    pub fn save(&self, config: &str, bench: &str, budget: &Budget, r: &RunResult) -> bool {
        JobKey::of_suite(config, bench, budget).is_some_and(|key| self.save_key(&key, r))
    }

    /// The row filed under `key`, if its file exists, names `key` and
    /// matches its checksum. Its labels are those it was saved with.
    pub(crate) fn load_key(&self, key: &JobKey) -> Option<RunResult> {
        let bytes = std::fs::read(self.path_of(key)?).ok()?;
        let file = serde::json::parse(std::str::from_utf8(&bytes).ok()?)?;
        let row = file.get("row")?;
        let intact = file.get("key") == Some(&Value::Str(key.to_string()))
            && file.get("checksum") == Some(&Value::Str(row_checksum(row)));
        intact.then(|| RunResult::from_value(row)).flatten()
    }

    /// Persist `r` under `key` via temp-file + atomic rename, so concurrent
    /// writers (threads or processes) can never leave a torn file. Returns
    /// whether the row is now durably on disk; the first failure warns on
    /// stderr with the path, later ones stay quiet.
    pub(crate) fn save_key(&self, key: &JobKey, r: &RunResult) -> bool {
        let Some(p) = self.path_of(key) else {
            return false;
        };
        let row = r.to_value();
        let file = Value::Obj(vec![
            ("key".into(), Value::Str(key.to_string())),
            ("checksum".into(), Value::Str(row_checksum(&row))),
            ("row".into(), row),
        ]);
        match write_atomic(&p, file.to_pretty_string().as_bytes()) {
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
}

/// FNV-1a of a row's compact JSON, as 16 hex digits.
fn row_checksum(row: &Value) -> String {
    format!(
        "{:016x}",
        fnv(FNV_START, row.to_compact_string().as_bytes())
    )
}

fn write_atomic(p: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = p.parent() {
        std::fs::create_dir_all(parent)?;
    }
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
    /// Of `total`, the pairs that joined an identical job (same
    /// [`JobKey`]) instead of simulating: `total - coalesced` simulations
    /// run for this sweep. Fixed before the first event.
    pub coalesced: usize,
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

/// The content identity of `cfg`: the configuration half of a [`JobKey`]
/// and the [`ResultStore`] shard its rows live in. FNV-1a over the `Debug`
/// rendering of the resolved core, memory and predictor configuration, as
/// 16 hex digits. The name is not part of it: two labels of one machine
/// share rows, and any field that moves (a recalibrated DCOUNT threshold,
/// an override, a family's memory latency) moves the identity.
pub fn store_name(cfg: &SimConfig) -> String {
    let text = format!("{:?} {:?} {:?}", cfg.core, cfg.mem, cfg.pred);
    format!("{:016x}", fnv(FNV_START, text.as_bytes()))
}

/// The one identity of a simulated row: what was simulated, never what it
/// is called. The scheduler ([`crate::scheduler`]) coalesces jobs under
/// it, so a job any number of concurrent requests ask for runs once, and
/// the [`ResultStore`] files the row under it, so the two cannot disagree.
/// Equal keys give bit-identical rows up to the display labels (`config`,
/// `bench`), which each requester stamps on its own copy.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// Content identity of the configuration ([`store_name`]).
    pub config: String,
    /// Content identity of the workload ([`Workload::id`]): `p` + a hash
    /// of a suite benchmark's program, or `t` + the checksum of the
    /// imported trace file a job loads.
    pub workload: String,
    /// Instruction budget of the run.
    pub budget: Budget,
}

impl JobKey {
    /// The key `(cfg, workload, budget)` simulates under.
    pub fn of(cfg: &SimConfig, workload: &Workload, budget: &Budget) -> JobKey {
        JobKey {
            config: store_name(cfg),
            workload: workload.id(),
            budget: *budget,
        }
    }

    /// The key of configuration `config` (a [`store_name`]) on suite
    /// benchmark `bench`, the [`ResultStore`]'s `(config, bench, budget)`
    /// address; `None` for a name outside the suite.
    fn of_suite(config: &str, bench: &str, budget: &Budget) -> Option<JobKey> {
        Some(JobKey {
            config: config.to_string(),
            workload: Workload::resolve(bench, None).ok()?.id(),
            budget: *budget,
        })
    }
}

impl std::fmt::Display for JobKey {
    /// The provenance line each stored row embeds: model version,
    /// configuration hash, workload identity and budget.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model v{MODEL_VERSION} config {} workload {} budget {}w{}m",
            self.config, self.workload, self.budget.warmup, self.budget.measure
        )
    }
}

/// Simulate one (configuration × workload) pair and return the raw
/// counters (no memoization, no reduction): the core streams the
/// workload's source, then the end-of-run check returns the error that
/// ended the stream, if any, naming the workload.
fn simulate_stats(
    cfg: &SimConfig,
    workload: &Workload,
    budget: &Budget,
) -> Result<rcmc_core::Stats, String> {
    let mut core = Core::streaming(cfg.core.clone(), cfg.mem, cfg.pred, workload.source());
    let stats = core.run_with_warmup(budget.warmup, budget.measure);
    workload.finish(core.into_source())?;
    Ok(stats)
}

/// The post-run metric reduction: fold raw [`rcmc_core::Stats`] (including
/// the per-cluster dispatch and NREADY aggregates) into the figure metrics.
/// Pure and deterministic — each job runs its own on whichever worker
/// simulated it, overlapped with other jobs' simulations.
/// `fp` is `bench`'s suite class (INT for any other name); a job's row
/// takes its class from its [`Workload`] instead ([`run_pair`]).
pub fn reduce_metrics(cfg: &SimConfig, bench: &str, stats: &rcmc_core::Stats) -> RunResult {
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

/// `r` under the display label `config` and the name and class of
/// `workload`. Rows are shared by content, so a row stored or simulated
/// for another label of the same machine and workload is relabelled for
/// each requester. The class comes from the workload, not the row: an
/// imported trace's class flag is outside its checksum, so a row stored
/// before a re-import that set the flag would carry a stale class.
pub(crate) fn labelled(r: &RunResult, config: &str, workload: &Workload) -> RunResult {
    RunResult {
        config: config.to_string(),
        bench: workload.name().to_string(),
        fp: workload.fp(),
        ..r.clone()
    }
}

/// Simulate one (configuration × workload) pair, memoized: a store hit
/// loads no trace. The job runs exactly the workload it is keyed by, and
/// the row is filed under that key. A workload whose stream fails (an
/// imported file anywhere damaged) fails the job with the error, and no
/// row is saved.
pub fn run_pair(
    cfg: &SimConfig,
    workload: &Workload,
    budget: &Budget,
    store: &ResultStore,
) -> Result<RunResult, String> {
    let key = JobKey::of(cfg, workload, budget);
    if let Some(hit) = store.load_key(&key) {
        return Ok(labelled(&hit, &cfg.name, workload));
    }
    let stats = simulate_stats(cfg, workload, budget)?;
    let result = labelled(
        &reduce_metrics(cfg, workload.name(), &stats),
        &cfg.name,
        workload,
    );
    store.save_key(&key, &result);
    Ok(result)
}

/// All 26 suite names.
pub fn all_bench_names() -> Vec<&'static str> {
    rcmc_workloads::suite().iter().map(|b| b.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{make, make_pair, ALL_STEERINGS, ALL_TOPOLOGIES};
    use rcmc_core::Topology;

    fn suite(name: &str) -> Workload {
        Workload::resolve(name, None).unwrap()
    }

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
        let r = run_pair(&cfg, &suite("swim"), &tiny_budget(), &store).unwrap();
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
        let r1 = run_pair(&cfg, &suite("gzip"), &tiny_budget(), &store).unwrap();
        let r2 = run_pair(&cfg, &suite("gzip"), &tiny_budget(), &store).unwrap();
        assert_eq!(r1, r2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_reports_persistence() {
        let dir = std::env::temp_dir().join(format!("rcmc-save-{}", std::process::id()));
        let store = ResultStore::at(dir.clone());
        let cfg = make(Topology::Conv, 4, 2, 1);
        let id = store_name(&cfg);
        let budget = tiny_budget();
        let r = run_pair(&cfg, &suite("swim"), &budget, &ResultStore::ephemeral()).unwrap();
        assert!(
            store.save(&id, "swim", &budget, &r),
            "save to a writable dir must persist"
        );
        assert_eq!(store.load(&id, "swim", &budget).as_ref(), Some(&r));
        // No stray temp files left behind by the atomic-rename protocol.
        let shard = dir.join(&id);
        let leftovers: Vec<_> = std::fs::read_dir(&shard)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        // An ephemeral store persists nothing and says so.
        assert!(!ResultStore::ephemeral().save(&id, "swim", &budget, &r));
        // An unwritable "directory" (a file in the way) fails gracefully.
        let blocked = dir.join("blocked");
        std::fs::write(&blocked, b"not a dir").unwrap();
        assert!(!ResultStore::at(blocked.join("sub")).save(&id, "swim", &budget, &r));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn store_shards_by_configuration() {
        let dir = std::env::temp_dir().join(format!("rcmc-shard-{}", std::process::id()));
        let store = ResultStore::at(dir.clone());
        let budget = tiny_budget();
        let a = make(Topology::Ring, 4, 2, 1);
        let b = make(Topology::Conv, 4, 2, 1);
        let ra = run_pair(&a, &suite("gzip"), &budget, &store).unwrap();
        let rb = run_pair(&b, &suite("gzip"), &budget, &store).unwrap();
        // One subdirectory per configuration, no flat files at the root.
        for cfg in [&a, &b] {
            assert!(
                dir.join(store_name(cfg)).is_dir(),
                "missing shard {}",
                cfg.name
            );
        }
        let flat_json = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("json".as_ref()))
            .count();
        assert_eq!(flat_json, 0, "sharded saves must not write flat files");
        assert_eq!(store.load(&store_name(&a), "gzip", &budget), Some(ra));
        assert_eq!(store.load(&store_name(&b), "gzip", &budget), Some(rb));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn damaged_or_misfiled_rows_are_misses_that_resimulate() {
        // Each input leaves a file a row could be read from. The load must
        // miss and `run_pair` must return the freshly simulated row (every
        // damaged row below would differ from it), then file it intact.
        let dir = std::env::temp_dir().join(format!("rcmc-damage-{}", std::process::id()));
        let store = ResultStore::at(dir.clone());
        let budget = tiny_budget();
        let ring = make(Topology::Ring, 4, 2, 1);
        let fresh = |cfg: &SimConfig, bench| {
            run_pair(cfg, &suite(bench), &budget, &ResultStore::ephemeral()).unwrap()
        };
        // A row file that passes every check, holding `r`.
        let valid_file = |key: &JobKey, r: &RunResult| {
            let side = ResultStore::at(dir.join("side"));
            assert!(side.save_key(key, r));
            std::fs::read(side.path_of(key).unwrap()).unwrap()
        };
        let mcf = JobKey::of(&ring, &suite("mcf"), &budget);
        let intact = valid_file(&mcf, &fresh(&ring, "mcf"));
        let mut poisoned = fresh(&ring, "mcf");
        poisoned.ipc = 999.0;

        type Damage<'a> = Box<dyn Fn(&Path) + 'a>;
        let write = |p: &Path, bytes: &[u8]| {
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(p, bytes).unwrap();
        };
        let inputs: Vec<(&str, &SimConfig, &str, Damage)> = vec![
            (
                "truncated",
                &ring,
                "mcf",
                Box::new(|p| write(p, &intact[..intact.len() / 2])),
            ),
            (
                "bit-flipped",
                &ring,
                "mcf",
                Box::new(|p| {
                    let mut bytes = intact.clone();
                    let at = String::from_utf8_lossy(&bytes).find("\"ipc\": ").unwrap() + 7;
                    bytes[at] ^= 1;
                    write(p, &bytes);
                }),
            ),
            (
                "hand-edited IPC",
                &ring,
                "mcf",
                Box::new(|p| {
                    let mut file =
                        serde::json::parse(std::str::from_utf8(&intact).unwrap()).unwrap();
                    let Value::Obj(members) = &mut file else {
                        panic!("a row file is an object");
                    };
                    members.retain(|(k, _)| k != "row");
                    members.push(("row".into(), poisoned.to_value()));
                    write(p, file.to_pretty_string().as_bytes());
                }),
            ),
            (
                "valid row copied under another key's file name",
                &ring,
                "mcf",
                Box::new(|p| {
                    let gzip = JobKey::of(&ring, &suite("gzip"), &budget);
                    write(p, &valid_file(&gzip, &fresh(&ring, "gzip")));
                }),
            ),
        ];
        for (what, cfg, bench, damage) in inputs {
            let key = JobKey::of(cfg, &suite(bench), &budget);
            let path = store.path_of(&key).unwrap();
            damage(&path);
            assert_eq!(store.load_key(&key), None, "{what}: must miss");
            let want = fresh(cfg, bench);
            assert_eq!(
                run_pair(cfg, &suite(bench), &budget, &store).unwrap(),
                want,
                "{what}"
            );
            assert_eq!(store.load_key(&key), Some(want), "{what}: refiled intact");
        }
        // No single-bit flip anywhere in a row file yields another row.
        let want = fresh(&ring, "mcf");
        for at in 0..intact.len() {
            for bit in 0..8 {
                let mut bytes = intact.clone();
                bytes[at] ^= 1 << bit;
                write(&store.path_of(&mcf).unwrap(), &bytes);
                if let Some(got) = store.load_key(&mcf) {
                    assert_eq!(got, want, "flip of bit {bit} at byte {at}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn flat_file_at_store_root_is_a_miss() {
        // Only the configuration shard is consulted: a valid row sitting
        // where the pre-sharding layout put it is never read.
        let dir = std::env::temp_dir().join(format!("rcmc-flat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = ResultStore::at(dir.clone());
        let budget = tiny_budget();
        let cfg = make(Topology::Ring, 4, 2, 1);
        let key = JobKey::of(&cfg, &suite("mcf"), &budget);
        let fresh = run_pair(&cfg, &suite("mcf"), &budget, &ResultStore::ephemeral()).unwrap();
        let mut poisoned = fresh.clone();
        poisoned.ipc = 999.0;
        let side = ResultStore::at(dir.join("side"));
        assert!(side.save_key(&key, &poisoned));
        let sharded = side.path_of(&key).unwrap();
        let flat = dir.join(sharded.file_name().unwrap());
        std::fs::copy(&sharded, &flat).unwrap();
        assert_eq!(store.load_key(&key), None);
        assert!(flat.is_file(), "a miss must not touch the flat file");
        assert_eq!(
            run_pair(&cfg, &suite("mcf"), &budget, &store).unwrap(),
            fresh
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recalibrated_thresholds_get_their_own_store_keys() {
        // The Crossbar default threshold moved 16 -> 8 without a
        // MODEL_VERSION bump; its store identity must move with it even
        // though the display name did not.
        let xbar = make(Topology::Crossbar, 8, 2, 1);
        let mut xbar16 = xbar.clone();
        xbar16.core.dcount_threshold = 16.0;
        assert_eq!(xbar.name, xbar16.name);
        assert_ne!(store_name(&xbar), store_name(&xbar16));
        // A stale row computed with the old threshold must not satisfy a
        // sweep of the new config.
        let dir = std::env::temp_dir().join(format!("rcmc-thr-{}", std::process::id()));
        let store = ResultStore::at(dir.clone());
        let budget = tiny_budget();
        let fresh = run_pair(&xbar, &suite("gzip"), &budget, &ResultStore::ephemeral()).unwrap();
        let mut stale =
            run_pair(&xbar16, &suite("gzip"), &budget, &ResultStore::ephemeral()).unwrap();
        stale.ipc = 999.0;
        assert!(store.save_key(&JobKey::of(&xbar16, &suite("gzip"), &budget), &stale));
        let got = run_pair(&xbar, &suite("gzip"), &budget, &store).unwrap();
        assert_eq!(got, fresh, "stale pre-recalibration row leaked in");
        // And the fresh row is now memoized under the new config's key.
        assert_eq!(
            store.load(&store_name(&xbar), "gzip", &budget).as_ref(),
            Some(&fresh)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// FNV-1a over the canary grid's rows, labels blanked
    /// ([`MODEL_HISTORY`]).
    fn canary_digest() -> u64 {
        let budget = Budget {
            warmup: 500,
            measure: 1_500,
        };
        let mut h = FNV_START;
        for topology in ALL_TOPOLOGIES {
            for steering in ALL_STEERINGS {
                let cfg = make_pair(topology, steering, 8, 2, 1);
                for bench in ["gzip", "mcf", "fma3d"] {
                    let r =
                        run_pair(&cfg, &suite(bench), &budget, &ResultStore::ephemeral()).unwrap();
                    let blanked = RunResult {
                        config: String::new(),
                        bench: String::new(),
                        ..r
                    };
                    let row = blanked.to_value().to_compact_string();
                    h = fnv(h, row.as_bytes());
                }
            }
        }
        h
    }

    #[test]
    fn model_version_is_pinned_to_behaviour() {
        let now = canary_digest();
        assert_eq!(
            MODEL_HISTORY.last(),
            Some(&(MODEL_VERSION, now)),
            "the canary rows moved: bump MODEL_VERSION and append \
             ({}, {now:#018x}) to MODEL_HISTORY",
            MODEL_VERSION + 1
        );
        for (i, (version, digest)) in MODEL_HISTORY.iter().enumerate() {
            for (later, other) in &MODEL_HISTORY[i + 1..] {
                assert!(version < later, "versions must increase");
                assert_ne!(digest, other, "v{later} repeats v{version}'s digest");
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = make(Topology::Ring, 8, 1, 1);
        let store = ResultStore::ephemeral();
        let a = run_pair(&cfg, &suite("mcf"), &tiny_budget(), &store).unwrap();
        let b = run_pair(&cfg, &suite("mcf"), &tiny_budget(), &store).unwrap();
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
            coalesced: 0,
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
            coalesced: 0,
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
