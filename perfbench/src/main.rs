//! rcmc-perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! One command runs one named workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the line before it is a `_meta` object recording what was
//! measured and where. Untraced runs (`--trace 0`) report the end-to-end
//! metrics; traced runs (`--trace 1`) report per-layer costs, measured by
//! timing calls into each layer's public functions. `README.md` beside this
//! crate has the workload, metric and layer tables.
//!
//! ```text
//! rcmc-perfbench --workload paper-sweep --seed 1 --seconds 12 --trace 0
//! rcmc-perfbench --workload stall-sweep --seed 1 --seconds 12 --repeat 10
//! rcmc-perfbench --write-digests perfbench/digests.txt
//! ```

mod digests;
mod host;
mod replay;
mod serve_mixed;
mod spans;
mod stats;
mod steady;
mod sweep;

use std::path::{Path, PathBuf};

use serde::json::Value;

use crate::spans::Tracer;

const WORKLOADS: [&str; 3] = ["paper-sweep", "stall-sweep", "serve-mixed"];

const USAGE: &str = "usage: rcmc-perfbench --workload paper-sweep|stall-sweep|serve-mixed \
[--seed N] [--seconds N] [--trace 0|1] [--repeat K]\n\
       rcmc-perfbench --write-digests FILE";

/// Every run's scratch directory lives under this one, inside the working
/// directory, and is removed when the run ends.
const SCRATCH_ROOT: &str = ".perfbench-tmp";

/// Traced runs write their spans here.
const SPANS_DIR: &str = ".bench_out";

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Nominal run length: sets a fixed amount of work, never a time box.
    pub seconds: u64,
    pub trace: bool,
    /// Steadiness mode: this many runs with seeds `seed, seed + 1, ...`.
    pub repeat: Option<usize>,
    pub write_digests: Option<PathBuf>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag} takes a whole number, not '{v}'"))
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: None,
        write_digests: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&flag, &value)?,
            "--seconds" => args.seconds = number(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--repeat" => args.repeat = Some(number(&flag, &value)?),
            "--write-digests" => args.write_digests = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.write_digests.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 || args.repeat == Some(0) {
        return Err("--seconds and --repeat must be at least 1".into());
    }
    Ok(args)
}

/// A number for a JSON field.
pub trait ToNum {
    fn to_num(self) -> f64;
}

impl ToNum for u64 {
    fn to_num(self) -> f64 {
        self as f64
    }
}

impl ToNum for usize {
    fn to_num(self) -> f64 {
        self as f64
    }
}

impl ToNum for f64 {
    fn to_num(self) -> f64 {
        self
    }
}

pub fn num(x: impl ToNum) -> Value {
    Value::Num(x.to_num())
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (simulated rows, requests) and how many failed
    /// their check.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance beyond the common fields: counts, budget, percentile.
    pub meta: Vec<(&'static str, Value)>,
    /// A traced run's spans, written out when the run ends.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn meta(&mut self, key: &'static str, value: Value) {
        self.meta.push((key, value));
    }
}

/// SplitMix64: a small seeded generator, so one `--seed` gives the same
/// inputs everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// This run's scratch directory (result and trace stores); removed on drop,
/// so one run never warms the next.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn create(workload: &str) -> Result<Scratch, String> {
        let dir = Path::new(SCRATCH_ROOT).join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// A path under the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let outcome = {
        let scratch = Scratch::create(&args.workload)?;
        match args.workload.as_str() {
            "serve-mixed" => serve_mixed::run(args, &scratch)?,
            sweep => sweep::run(sweep, args, &scratch)?,
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number ({})", m.name, m.value));
    }
    if let Some(tracer) = &outcome.spans {
        let path =
            Path::new(SPANS_DIR).join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let mut meta = vec![
        ("git_rev", Value::Str(host::git_rev())),
        ("nproc", num(host::nproc())),
        ("cpu_model", Value::Str(host::cpu_model())),
        ("workload", Value::Str(args.workload.clone())),
        ("seed", num(args.seed)),
        ("seconds", num(args.seconds)),
        ("tracing", Value::Bool(args.trace)),
    ];
    meta.extend(outcome.meta);
    for m in &outcome.metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", obj(vec![("_meta", obj(meta))]).to_compact_string());
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = obj(vec![
        (
            "correct",
            Value::Bool(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted", num(outcome.attempted)),
        ("failed", num(outcome.failed)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", result.to_compact_string());
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rcmc-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match (&args.write_digests, args.repeat) {
        (Some(path), _) => digests::write(path),
        (None, Some(runs)) => steady::run(&args, runs),
        (None, None) => run(&args),
    };
    if let Err(e) = result {
        eprintln!("rcmc-perfbench: {e}");
        std::process::exit(1);
    }
}
