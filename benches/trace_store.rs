//! trace_store — emulating vs decoding the full suite's oracle traces.
//!
//! Measures the question the on-disk [`TraceDb`] would have to win to
//! hold suite traces: at the paper's window (30k warm-up + 200k measured
//! instructions, plus the run-ahead), is decoding a stored trace faster
//! than emulating it afresh? Every suite benchmark is emulated, saved to
//! a fresh store and loaded back once, untimed, asserting the stored trace
//! — dynamic instructions *and* whole-run facts — is bit-identical to the
//! emulation. Then [`REPS`] emulate-only passes (`trace_program`) and
//! [`REPS`] decode-only passes ([`TraceDb::load`]) over the 26 benchmarks
//! alternate, swapping which goes first every rep, so both see the same
//! host slow phases. Each pass holds one trace at a time.
//!
//! Emits `BENCH_trace.json` at the repo root (atomic rename, like the
//! other BENCH files): `emulate_s` and `decode_s` (median seconds per
//! pass, with `_q1`/`_q3` quartiles), `emulate_minsns_per_s`,
//! `decode_MBps`, the on-disk `bytes_per_insn` next to the flat v1 figure
//! the format v2 zero-run codec replaces, the in-memory
//! `mem_bytes_per_insn` of an emulated trace (16-byte records plus its
//! share of the static table), and `_meta` (`nproc`, git revision, reps,
//! window).

use std::path::Path;
use std::time::Instant;

use ring_clustered::emu::{trace_program, DynInsn, TraceDb};
use ring_clustered::sim::runner::{all_bench_names, Budget};
use ring_clustered::workloads::benchmark;
use serde::json::Value;

/// Timed passes of each kind; median and quartiles are reported.
const REPS: usize = 9;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `git describe` of the checkout, for the `_meta` record.
fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `[q1, median, q3]` of the pass times, printed and returned.
fn quartiles(what: &str, mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = [REPS / 4, REPS / 2, 3 * REPS / 4].map(|i| xs[i]);
    println!(
        "  {what:7} {:.3} s  (q1 {:.3}, q3 {:.3})  reps [{}]",
        q[1],
        q[0],
        q[2],
        xs.iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    q
}

fn main() {
    let len = Budget {
        warmup: 30_000,
        measure: 200_000,
    }
    .trace_len();
    let names = all_bench_names();
    let emulate = |name: &str| {
        trace_program(&benchmark(name).unwrap().build(), len as usize)
            .expect("suite benchmarks emulate cleanly")
    };
    let dir = std::env::temp_dir().join(format!("rcmc-trace-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = TraceDb::at(dir.clone());

    // Untimed: fill the store, and check every stored trace against the
    // emulation it came from.
    let (mut insns, mut mem_bytes) = (0u64, 0u64);
    for name in &names {
        let fresh = emulate(name);
        assert!(db.save(name, len, &fresh), "{name}: save failed");
        let stored = db.load_full(name, len).expect("stored trace validates");
        assert!(
            stored == fresh,
            "{name}: logical stream or whole-run facts differ"
        );
        insns += fresh.len() as u64;
        mem_bytes += fresh.bytes() as u64;
    }
    let bytes: u64 = db.list().iter().map(|m| m.bytes).sum();

    let emulate_pass = || {
        let t0 = Instant::now();
        for name in &names {
            assert!(!emulate(name).is_empty(), "{name}: empty trace");
        }
        t0.elapsed().as_secs_f64()
    };
    let decode_pass = || {
        let t0 = Instant::now();
        for name in &names {
            let trace = db.load(name, len).expect("stored trace loads");
            assert!(!trace.is_empty(), "{name}: empty trace");
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut emulate_s, mut decode_s) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        if rep % 2 == 0 {
            emulate_s.push(emulate_pass());
            decode_s.push(decode_pass());
        } else {
            decode_s.push(decode_pass());
            emulate_s.push(emulate_pass());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "trace_store: {} traces × {len} insns, {insns} insns, {:.1} MB on disk",
        names.len(),
        bytes as f64 / 1e6
    );
    let [e1, emulate_s, e3] = quartiles("emulate", emulate_s);
    let [d1, decode_s, d3] = quartiles("decode", decode_s);
    let emulate_minsns = insns as f64 / emulate_s / 1e6;
    let decode_mbps = bytes as f64 / decode_s / 1e6;
    // Zero-run compression win: format v1 stored every record as four flat
    // words (32 B/insn, no header amortization worth counting); v2 stores
    // only the nonzero words behind a control byte.
    let bytes_per_insn_flat = 32.0;
    let bytes_per_insn = bytes as f64 / insns as f64;
    println!("  emulate {emulate_minsns:.0} Minsn/s  decode {decode_mbps:.0} MB/s  ({:.2}x the emulate time)", decode_s / emulate_s);
    println!(
        "  {bytes_per_insn:.2} B/insn on disk (flat v1 encoding: {bytes_per_insn_flat:.0} B/insn)"
    );
    assert!(
        bytes_per_insn < bytes_per_insn_flat,
        "v2 zero-run codec did not beat the flat v1 record size"
    );
    // In memory: 16-byte records over a per-trace static table, against the
    // 32-byte logical record a trace would hold without the table.
    let logical_bytes = std::mem::size_of::<DynInsn>();
    let mem_bytes_per_insn = mem_bytes as f64 / insns as f64;
    println!("  {mem_bytes_per_insn:.4} B/insn in memory (logical record: {logical_bytes} B/insn)");
    assert!(
        mem_bytes_per_insn < logical_bytes as f64,
        "the compact trace is no smaller than its logical records"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let num = Value::Num;
    let bench = obj(vec![
        (
            "_meta",
            obj(vec![
                ("bench", Value::Str("trace_store".into())),
                ("nproc", num(nproc as f64)),
                ("git_rev", Value::Str(git_rev(root))),
                ("reps", num(REPS as f64)),
                ("traces", num(names.len() as f64)),
                ("trace_len", num(len as f64)),
                ("insns", num(insns as f64)),
                ("bytes", num(bytes as f64)),
            ]),
        ),
        ("emulate_s", num(emulate_s)),
        ("emulate_s_q1", num(e1)),
        ("emulate_s_q3", num(e3)),
        ("decode_s", num(decode_s)),
        ("decode_s_q1", num(d1)),
        ("decode_s_q3", num(d3)),
        ("emulate_minsns_per_s", num(emulate_minsns)),
        ("decode_MBps", num(decode_mbps)),
        ("bytes_per_insn_flat", num(bytes_per_insn_flat)),
        ("bytes_per_insn", num(bytes_per_insn)),
        ("mem_bytes_per_insn", num(mem_bytes_per_insn)),
    ]);
    let path = root.join("BENCH_trace.json");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, format!("{}\n", bench.to_pretty_string())).expect("write BENCH_trace");
    std::fs::rename(&tmp, &path).expect("rename BENCH_trace");
    println!("wrote {}", path.display());
}
