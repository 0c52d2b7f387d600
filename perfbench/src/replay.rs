//! The traced run's replay: a plan executed serially through each layer's
//! public calls, with a span around every call, and the per-layer metrics
//! derived from those spans.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ring_clustered::core::Core;
use ring_clustered::emu::TraceDb;
use ring_clustered::sim::runner::{cached_trace_via, reduce_metrics, store_name};
use ring_clustered::sim::serve::{serve_with, ServeOpts};
use ring_clustered::sim::{Plan, ResultSet, ResultStore, RunResult, Session};
use serde::json::Value;

use crate::spans::{totals, Tracer};
use crate::{obj, Outcome};

/// The layer spans of a replay; the root `plan` span's self time is the
/// glue between them.
pub const LAYERS: [&str; 8] = [
    "plan.resolve",
    "store.load",
    "trace.load",
    "core.new",
    "core.run",
    "runner.reduce",
    "store.save",
    "report.render",
];

/// Counts taken at the layer boundaries of a replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub loads: u64,
    pub hits: u64,
    pub executed: u64,
    pub cycles: u64,
    pub skipped: u64,
    pub insns: u64,
}

/// Execute the plan `spec` the way the sweep engine and the serve workers
/// do — parse and resolve it, then per pair load the row or (fetch the
/// trace, build the core, run it, reduce, save), then render the plan's
/// reports — and return its rows sorted by (config, bench).
pub fn replay(
    spec: &Value,
    store: &ResultStore,
    db: Option<&TraceDb>,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<Vec<RunResult>, String> {
    tr.span("plan", |tr| {
        let (plan, (cfgs, benches)) = tr.span("plan.resolve", |_| {
            let plan = Plan::from_value_checked(spec)?;
            let resolved = plan.resolve_in(db)?;
            Ok::<_, String>((plan, resolved))
        })?;
        let budget = plan.budget.unwrap_or_default();
        let len = budget.trace_len();
        let mut rows = Vec::with_capacity(cfgs.len() * benches.len());
        for cfg in &cfgs {
            let key = store_name(cfg);
            for bench in &benches {
                c.loads += 1;
                if let Some(hit) = tr.span("store.load", |_| store.load(&key, bench, &budget)) {
                    c.hits += 1;
                    rows.push(hit);
                    continue;
                }
                let trace = tr.span("trace.load", |_| cached_trace_via(bench, len, db));
                let mut core = tr.span("core.new", |_| {
                    Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace)
                });
                let stats = tr.span("core.run", |_| {
                    core.run_with_warmup(budget.warmup, budget.measure)
                });
                c.executed += 1;
                c.cycles += core.stats().cycles;
                c.skipped += core.skipped_cycles();
                c.insns += core.stats().committed;
                let row = tr.span("runner.reduce", |_| reduce_metrics(cfg, bench, &stats));
                tr.span("store.save", |_| store.save(&key, bench, &budget, &row));
                rows.push(row);
            }
        }
        let order: Vec<String> = cfgs.iter().map(|c| c.name.clone()).collect();
        let rs = ResultSet::from_rows(rows);
        tr.span("report.render", |_| plan.render_reports_for(&rs, &order))?;
        Ok(rs.rows().to_vec())
    })
}

/// Load every trace stored in `db` under a `trace_db.load` span; returns
/// the file bytes loaded.
pub fn decode_stored(db: &TraceDb, len: u64, tr: &mut Tracer) -> Result<u64, String> {
    let mut bytes = 0;
    for meta in db.list() {
        let loaded = tr.span("trace_db.load", |_| db.load(&meta.name, len));
        loaded.ok_or_else(|| format!("stored trace {} failed to load", meta.name))?;
        bytes += meta.bytes;
    }
    Ok(bytes)
}

/// Rows as canonical JSON text, for comparing rows that took different
/// paths (serve sends them as JSON; NaN fields compare equal as `null`).
pub fn rows_text(rows: &[RunResult]) -> Vec<String> {
    rows.iter()
        .map(|r| serde::Serialize::to_value(r).to_compact_string())
        .collect()
}

/// What one request to an in-process serve loop observed.
pub struct Probe {
    pub first_event_ms: f64,
    pub jobs: u64,
    pub executed: u64,
    /// Pairs served by coalescing or from the store.
    pub hits: u64,
    pub rows: Vec<Value>,
}

/// Output sink that timestamps every line the serve loop writes.
struct Lines {
    t0: Instant,
    partial: Vec<u8>,
    lines: Arc<Mutex<Vec<(Duration, String)>>>,
}

impl Write for Lines {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.lines
                    .lock()
                    .expect("serve output lock")
                    .push((self.t0.elapsed(), line));
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Submit `spec` once to an in-process serve loop with one worker over the
/// store at `store`, and time its first event.
pub fn serve_probe(spec: &Value, store: PathBuf, db: Option<TraceDb>) -> Result<Probe, String> {
    let session = Session::with_store(ResultStore::at(store)).with_jobs(1);
    let session = match db {
        Some(db) => session.with_trace_store(db),
        None => session.without_trace_store(),
    };
    let request = obj(vec![
        ("id", Value::Str("probe".into())),
        ("op", Value::Str("run".into())),
        ("plan", spec.clone()),
    ]);
    let input = format!(
        "{}\n{{\"op\": \"shutdown\"}}\n",
        request.to_compact_string()
    );
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Lines {
        t0: Instant::now(),
        partial: Vec::new(),
        lines: lines.clone(),
    };
    serve_with(&session, input.as_bytes(), sink, &ServeOpts::default())
        .map_err(|e| format!("in-process serve: {e}"))?;
    let lines = lines.lock().expect("serve output lock");
    let mut first = None;
    for (at, line) in lines.iter() {
        let ev = serde::json::parse(line).ok_or_else(|| format!("serve sent non-JSON: {line}"))?;
        if ev.get("id") != Some(&Value::Str("probe".into())) {
            continue;
        }
        first.get_or_insert(*at);
        match ev.get("event") {
            Some(Value::Str(k)) if k == "result" => {
                let count = |k: &str| match ev.get("stats").and_then(|s| s.get(k)) {
                    Some(Value::Num(n)) => *n as u64,
                    _ => 0,
                };
                let Some(Value::Arr(rows)) = ev.get("rows") else {
                    return Err(format!("result without rows: {line}"));
                };
                return Ok(Probe {
                    first_event_ms: first.unwrap_or(*at).as_secs_f64() * 1e3,
                    jobs: count("jobs"),
                    executed: count("executed"),
                    hits: count("coalesced") + count("memoized"),
                    rows: rows.clone(),
                });
            }
            Some(Value::Str(k)) if k == "error" => return Err(format!("serve probe: {line}")),
            _ => {}
        }
    }
    Err("the serve probe got no result".into())
}

/// Measurements the traced run feeds [`report_layers`] besides its spans.
pub struct LayerInputs {
    pub counters: Counters,
    /// Wall time of the traced replay and of the same replay untraced.
    pub traced_s: f64,
    pub untraced_s: f64,
    /// Instructions emulated inside `emu.trace` spans.
    pub emulated_insns: u64,
    /// Trace-file bytes loaded inside `trace_db.load` spans.
    pub decoded_bytes: u64,
    pub cache_bytes: usize,
    pub serve_first_event_ms: f64,
    pub serve_coalesce_hit_rate: f64,
    pub serve_executed: u64,
}

/// Append every per-layer metric to `out`.
pub fn report_layers(out: &mut Outcome, tr: &Tracer, l: &LayerInputs) {
    let t = totals(tr.spans());
    let self_s = |name: &str| t.get(name).map_or(0.0, |(_, d)| d.as_secs_f64());
    let calls = |name: &str| t.get(name).map_or(0, |(n, _)| *n).max(1) as f64;
    let per_call_us = |name: &str| self_s(name) / calls(name) * 1e6;
    let c = &l.counters;
    let run_ns = self_s("core.run") * 1e9;
    out.metric("core.ns_per_insn", run_ns / c.insns.max(1) as f64, "ns");
    let executed_cycles = (c.cycles - c.skipped).max(1) as f64;
    out.metric("core.ns_per_executed_cycle", run_ns / executed_cycles, "ns");
    out.metric(
        "core.skip_rate",
        c.skipped as f64 / c.cycles.max(1) as f64,
        "ratio",
    );
    out.metric("core.cycles", c.cycles as f64, "count");
    out.metric("core.skipped_cycles", c.skipped as f64, "count");
    out.metric("core.new_us", per_call_us("core.new"), "us");
    out.metric("plan.resolve_us", per_call_us("plan.resolve"), "us");
    out.metric("report.render_us", per_call_us("report.render"), "us");
    out.metric("store.load_us", per_call_us("store.load"), "us");
    out.metric("store.save_us", per_call_us("store.save"), "us");
    out.metric(
        "store.hit_rate",
        c.hits as f64 / c.loads.max(1) as f64,
        "ratio",
    );
    out.metric("runner.reduce_us", per_call_us("runner.reduce"), "us");
    out.metric("serve.first_event_ms", l.serve_first_event_ms, "ms");
    out.metric(
        "serve.coalesce_hit_rate",
        l.serve_coalesce_hit_rate,
        "ratio",
    );
    out.metric("serve.executed", l.serve_executed as f64, "count");
    out.metric(
        "emu.minsns_per_s",
        l.emulated_insns as f64 / self_s("emu.trace") / 1e6,
        "Minsn/s",
    );
    out.metric(
        "trace_db.decode_mb_per_s",
        l.decoded_bytes as f64 / self_s("trace_db.load") / 1e6,
        "MB/s",
    );
    out.metric("trace_cache.bytes", l.cache_bytes as f64, "bytes");
    let covered: f64 = LAYERS.iter().map(|n| self_s(n)).sum();
    out.metric("trace.coverage", covered / l.traced_s, "ratio");
    out.metric(
        "trace.overhead_pct",
        (l.traced_s / l.untraced_s - 1.0) * 100.0,
        "%",
    );
    for (name, metric) in LAYERS.iter().zip(SELF_METRICS) {
        out.metric(metric, self_s(name) * 1e3, "ms");
    }
    out.metric("plan.self_ms", self_s("plan") * 1e3, "ms");
}

/// `<layer>.self_ms` metric names, in [`LAYERS`] order.
const SELF_METRICS: [&str; 8] = [
    "plan.resolve.self_ms",
    "store.load.self_ms",
    "trace.load.self_ms",
    "core.new.self_ms",
    "core.run.self_ms",
    "runner.reduce.self_ms",
    "store.save.self_ms",
    "report.render.self_ms",
];
