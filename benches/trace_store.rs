//! trace_store — cold vs warm full-suite trace materialization.
//!
//! Measures the win the on-disk [`TraceDb`] exists for: materializing the
//! oracle traces of the whole 26-benchmark suite into a **fresh** store
//! (cold: emulate + persist) and then again through a fresh in-memory
//! cache over the now-populated store (warm: decode only). Asserts the
//! cache counters prove what happened (cold: 26 built / 0 hits; warm:
//! 0 built / 26 hits) and that every decoded trace — dynamic instructions
//! *and* whole-run facts — is bit-identical to a fresh emulation.
//!
//! Cold is timed once (it is a once-per-store event by design); warm is
//! the median of [`WARM_REPS`] passes, and so is `emulate_s`, a pass that
//! only emulates the suite and persists nothing: the cost a warm decode
//! saves. Emits `BENCH_trace.json` at the repo root (atomic rename, like
//! the other BENCH files) with `emulate_s`, `emulate_minsns_per_s`,
//! `cold_s`, `warm_s`, `warm_minsns_per_s`, `warm_speedup`, `decode_MBps`,
//! and the on-disk `bytes_per_insn` next to the flat v1 figure the format
//! v2 zero-run codec replaces.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ring_clustered::emu::{trace_program, DynInsn, TraceCache, TraceDb};
use ring_clustered::sim::runner::{all_bench_names, Budget};
use ring_clustered::workloads::benchmark;
use serde::json::Value;

/// Measured instructions per trace (the measure half of the budget).
const MEASURE_INSTRS: u64 = 30_000;

/// Timed warm and emulate-only passes; the medians are reported.
const WARM_REPS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Materialize every suite trace through `cache` (disk fallthrough via
/// `db`), returning elapsed seconds and the traces (the cache keeps a
/// trace only while someone holds it; dropping them is left untimed).
fn materialize(
    cache: &TraceCache,
    db: &TraceDb,
    names: &[&str],
    len: u64,
) -> (f64, Vec<Arc<Vec<DynInsn>>>) {
    let t0 = Instant::now();
    let traces = names
        .iter()
        .map(|name| {
            let b = benchmark(name).expect("suite benchmark");
            let trace = cache.get_or_build_via(name, len, Some(db), || {
                trace_program(&b.build(), len as usize).expect("suite benchmarks emulate cleanly")
            });
            assert!(!trace.is_empty(), "{name}: empty trace");
            trace
        })
        .collect();
    (t0.elapsed().as_secs_f64(), traces)
}

fn main() {
    let budget = Budget {
        warmup: 3_000,
        measure: MEASURE_INSTRS,
    };
    let len = budget.trace_len();
    let names = all_bench_names();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rcmc-trace-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = TraceDb::at(dir.clone());

    // Warmup pass: emulate everything once and throw it away, so the timed
    // passes measure emulate-vs-decode work, not one-time process costs
    // (lazy relocation, allocator growth, first-touch page faults). Then
    // the emulate-only passes, each dropping its traces before the next.
    let mut emulate_times = Vec::new();
    let mut emulated = 0;
    for rep in 0..=WARM_REPS {
        let t0 = Instant::now();
        let traces: Vec<_> = names
            .iter()
            .map(|n| trace_program(&benchmark(n).unwrap().build(), len as usize).unwrap())
            .collect();
        if rep > 0 {
            emulate_times.push(t0.elapsed().as_secs_f64());
        }
        emulated = traces.iter().map(|t| t.insns.len()).sum::<usize>();
    }

    // Cold is timed ONCE, against an empty store. Cold materialization is
    // a once-per-store event by design — the entire point of the trace DB
    // is that nobody ever pays it twice — so its honest cost is the one-
    // shot cost, first-time page-cache/writeback pressure from persisting
    // the store included. Looping cold and taking a median would measure
    // a loop-steady state that no real cold start ever runs in (each
    // iteration pre-pays the next one's kernel-side costs).
    let _ = std::fs::remove_dir_all(&dir);
    let cold_cache = TraceCache::new();
    let (cold_s, cold_traces) = materialize(&cold_cache, &db, &names, len);
    let cs = cold_cache.stats();
    assert_eq!(
        (cs.built, cs.db_hits),
        (names.len() as u64, 0),
        "cold pass must emulate everything"
    );
    // A real warm start is a new process, not one already holding every
    // trace in memory — drop the cold traces before timing warm.
    drop((cold_cache, cold_traces));

    // Warm, by contrast, is the many-shot path (every run after the
    // first), so it is timed `WARM_REPS` times through a fresh cache each
    // time and reported as the median.
    let mut warm_times = Vec::new();
    let mut last_warm = None;
    for _ in 0..WARM_REPS {
        let warm_cache = TraceCache::new();
        let (warm_s, warm_traces) = materialize(&warm_cache, &db, &names, len);
        warm_times.push(warm_s);
        let ws = warm_cache.stats();
        assert_eq!(
            (ws.built, ws.db_hits),
            (0, names.len() as u64),
            "warm pass must load everything from the trace store"
        );
        last_warm = Some((warm_cache, warm_traces));
    }
    let (warm_cache, _warm_traces) = last_warm.expect("at least one rep");
    let fmt = |xs: &[f64]| {
        xs.iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  emulate reps [{}]  cold {cold_s:.3}  warm reps [{}]",
        fmt(&emulate_times),
        fmt(&warm_times)
    );
    let warm_s = median(warm_times);
    let emulate_s = median(emulate_times);

    // Bit-identity: stored == freshly emulated, whole-run facts included.
    let mut bytes_total = 0u64;
    let mut insns_total = 0u64;
    for name in &names {
        let b = benchmark(name).unwrap();
        let fresh = trace_program(&b.build(), len as usize).unwrap();
        let stored = db.load_full(name, len).expect("stored trace validates");
        assert_eq!(stored.insns, fresh.insns, "{name}: dynamic stream differs");
        assert_eq!(stored.halted, fresh.halted, "{name}: halted flag differs");
        assert_eq!(
            stored.static_insns, fresh.static_insns,
            "{name}: static count differs"
        );
        let in_mem = warm_cache.get_or_build_via(name, len, Some(&db), || {
            panic!("{name}: warm cache lost its entry")
        });
        assert_eq!(*in_mem, fresh.insns, "{name}: cached stream differs");
    }
    for m in db.list() {
        bytes_total += m.bytes;
        insns_total += m.insns;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let warm_speedup = cold_s / warm_s;
    let decode_mbps = bytes_total as f64 / warm_s / 1e6;
    // Zero-run compression win: format v1 stored every record as four flat
    // words (32 B/insn, no header amortization worth counting); v2 stores
    // only the nonzero words behind a control byte.
    let bytes_per_insn_flat = 32.0;
    let bytes_per_insn = bytes_total as f64 / insns_total as f64;
    println!(
        "trace_store: {} traces, {:.1} MB on disk",
        names.len(),
        bytes_total as f64 / 1e6
    );
    let emulate_minsns = emulated as f64 / emulate_s / 1e6;
    println!("  emulate {emulate_s:.3}s ({emulate_minsns:.0} Minsn/s)  cold {cold_s:.3}s  warm {warm_s:.3}s  speedup {warm_speedup:.1}x  decode {decode_mbps:.0} MB/s");
    println!(
        "  {bytes_per_insn:.2} B/insn on disk (flat v1 encoding: {bytes_per_insn_flat:.0} B/insn)"
    );
    assert!(
        bytes_per_insn < bytes_per_insn_flat,
        "v2 zero-run codec did not beat the flat v1 record size"
    );

    let bench = obj(vec![
        (
            "_meta",
            obj(vec![
                ("bench", Value::Str("trace_store".into())),
                ("traces", Value::Num(names.len() as f64)),
                ("trace_len", Value::Num(len as f64)),
                ("bytes", Value::Num(bytes_total as f64)),
            ]),
        ),
        ("emulate_s", Value::Num(emulate_s)),
        ("emulate_minsns_per_s", Value::Num(emulate_minsns)),
        ("cold_s", Value::Num(cold_s)),
        ("warm_s", Value::Num(warm_s)),
        (
            "warm_minsns_per_s",
            Value::Num(insns_total as f64 / warm_s / 1e6),
        ),
        ("warm_speedup", Value::Num(warm_speedup)),
        ("decode_MBps", Value::Num(decode_mbps)),
        ("bytes_per_insn_flat", Value::Num(bytes_per_insn_flat)),
        ("bytes_per_insn", Value::Num(bytes_per_insn)),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_trace.json");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, format!("{}\n", bench.to_pretty_string())).expect("write BENCH_trace");
    std::fs::rename(&tmp, &path).expect("rename BENCH_trace");
    println!("wrote {}", path.display());
}
