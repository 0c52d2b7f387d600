//! paper-sweep and stall-sweep: a plan run the way users run it —
//! `Session::run_streaming` on one worker, a fresh result store, no trace
//! store — after setup has emulated every trace into the process's trace
//! cache, so the timed phase only simulates, reduces and persists.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use ring_clustered::emu::{trace_program, TraceDb};
use ring_clustered::sim::runner::{
    all_bench_names, cached_trace_via, trace_cache_bytes, trace_cache_stats,
};
use ring_clustered::sim::{
    Budget, ConfigSpec, Metric, Plan, ReportSpec, ResultSet, ResultStore, RunResult, Session,
    SweepProgress,
};
use ring_clustered::workloads::benchmark;
use serde::json::Value;

use crate::digests::Digests;
use crate::replay::{self, Counters, LayerInputs};
use crate::spans::Tracer;
use crate::{host, num, stats, Args, Outcome, Rng, Scratch};

/// The paper's default window: 30k warm-up then 200k measured instructions.
pub const BUDGET: Budget = Budget {
    warmup: 30_000,
    measure: 200_000,
};

/// Setup passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Memory-bound benchmarks: mostly stalled on misses behind slow memory, so
/// the event wheel skips most of their cycles.
const STALL_BENCHES: [&str; 8] = [
    "equake", "mcf", "perlbmk", "swim", "vpr", "gcc", "bzip2", "vortex",
];

/// Traces (alphabetically first) whose store load gives the decode rate.
const DECODE_PROBE: usize = 4;

/// Nominal seconds per round of each plan; a run does `--seconds / ROUND_S`
/// rounds (at least one): a fixed amount of work for a given `--seconds`,
/// never a time box. A stall-sweep round takes 6–8 s on the reference host;
/// a 30-s run does four rounds, because 128 job samples make `tail_ms` p90,
/// where the job times are flat. With three rounds it would be p75, which
/// sits on a 35% gap between job times and jumps from run to run.
const PAPER_ROUND_S: f64 = 10.0;
const STALL_ROUND_S: f64 = 7.5;

/// The paper's headline comparison: Ring vs Conv at 8 clusters, 1 bus,
/// 2-wide issue, over all 26 benchmarks.
pub fn paper_plan() -> Plan {
    let (ring, conv) = ("Ring_8clus_1bus_2IW", "Conv_8clus_1bus_2IW");
    Plan::new("paper-sweep")
        .config_named(ring)
        .config_named(conv)
        .benches(all_bench_names())
        .budget(BUDGET)
        .report(ReportSpec::speedup(vec![(ring.into(), conv.into())]))
}

/// The fast-forward workload: slow memory, both topologies, 1- and 4-cycle
/// hops, memory-bound benchmarks.
pub fn stall_plan() -> Plan {
    let mut plan = Plan::new("stall-sweep");
    for topology in ["ring", "conv"] {
        for hop in [1, 4] {
            plan = plan.config(ConfigSpec {
                machine: Some("slowmem".into()),
                topology: Some(topology.into()),
                hop_latency: Some(hop),
                ..ConfigSpec::default()
            });
        }
    }
    plan.benches(STALL_BENCHES)
        .budget(BUDGET)
        .report(ReportSpec::grouped(Metric::Ipc))
}

pub fn run(workload: &str, args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let (plan, round_s) = match workload {
        "paper-sweep" => (paper_plan(), PAPER_ROUND_S),
        _ => (stall_plan(), STALL_ROUND_S),
    };
    // The seed permutes the bench order.
    let mut benches = plan.benches.clone();
    Rng::new(args.seed).shuffle(&mut benches);
    let plan = plan.benches(benches.clone());
    let configs = plan.configs.len();
    let jobs = configs * benches.len();
    let len = BUDGET.trace_len();
    let digests = Digests::committed();
    let mut out = Outcome::default();
    out.meta("plan", Value::Str(plan.name.clone()));
    out.meta("budget_warmup", num(BUDGET.warmup));
    out.meta("budget_measure", num(BUDGET.measure));
    out.meta("configs", num(configs));
    out.meta("benches", num(benches.len()));
    out.meta("jobs_per_round", num(jobs));
    out.meta("setup_reps", num(SETUP_REPS));

    let mut tracer = Tracer::new(args.trace);
    let probe_db = args.trace.then(|| TraceDb::at(scratch.path("traces")));
    let before = trace_cache_stats();
    let (setup_s, emulated_insns) = setup(&benches, len, &mut tracer, probe_db.as_ref())?;
    let after = trace_cache_stats();
    out.meta("setup_emulated", num(after.built - before.built));
    out.meta("setup_decoded", num(after.db_hits - before.db_hits));
    out.meta("trace_cache_bytes", num(trace_cache_bytes()));

    if let Some(db) = &probe_db {
        return traced(&plan, db, tracer, emulated_insns, &digests, scratch, out);
    }

    let rounds = ((args.seconds as f64 / round_s).round() as usize).max(1);
    out.meta("rounds", num(rounds));
    let (mut wall, mut insns, mut memoized) = (0.0, 0u64, 0usize);
    let mut job_ms = Vec::new();
    for r in 0..rounds {
        let store = scratch.path(&format!("store-{r}"));
        let round = session_round(&plan, store.clone());
        let _ = std::fs::remove_dir_all(&store);
        memoized += round.memoized;
        out.attempted += jobs as u64;
        let ok = round
            .rows
            .iter()
            .filter(|r| digests.check(r, &BUDGET))
            .count();
        out.failed += (jobs - ok) as u64;
        insns += round
            .rows
            .iter()
            .map(|r| BUDGET.warmup + r.committed)
            .sum::<u64>();
        wall += round.wall_s;
        job_ms.extend(round.job_ms);
    }
    // A fresh store must memoize nothing, or the run measured lookups.
    out.meta("memoized_rows", num(memoized));
    if memoized != 0 {
        return Err(format!(
            "{memoized} rows came from a store that should be empty"
        ));
    }
    let (p50, tail, pct) = stats::p50_and_tail(&job_ms);
    out.meta("job_samples", num(job_ms.len()));
    out.meta("tail_percentile", Value::Num(pct));
    out.metric("sim_minsns_per_s", insns as f64 / wall / 1e6, "Minsn/s");
    out.metric("p50_ms", p50, "ms");
    out.metric("tail_ms", tail, "ms");
    out.metric("setup_s", stats::median(&setup_s), "s");
    out.metric("peak_rss_mb", host::peak_rss_mb("self")?, "MB");
    Ok(out)
}

/// Emulate every trace `SETUP_REPS` times; returns each pass's seconds and
/// the instructions emulated outside the cache. The last pass fills the
/// process-wide cache the sessions read; the first saves the decode-probe
/// traces into `probe` when tracing.
fn setup(
    benches: &[String],
    len: u64,
    tr: &mut Tracer,
    probe: Option<&TraceDb>,
) -> Result<(Vec<f64>, u64), String> {
    let mut probe_names = benches.to_vec();
    probe_names.sort();
    probe_names.truncate(DECODE_PROBE);
    let mut passes = Vec::with_capacity(SETUP_REPS);
    let mut emulated = 0;
    for pass in 0..SETUP_REPS {
        let t0 = Instant::now();
        for name in benches {
            if pass + 1 == SETUP_REPS {
                tr.span("trace.cache_fill", |_| cached_trace_via(name, len, None));
                continue;
            }
            let program = benchmark(name)
                .ok_or_else(|| format!("unknown benchmark {name}"))?
                .build();
            let trace = tr
                .span("emu.trace", |_| trace_program(&program, len as usize))
                .map_err(|e| format!("{name} failed to emulate: {e}"))?;
            emulated += trace.insns.len() as u64;
            if let (0, Some(db)) = (pass, probe) {
                if probe_names.contains(name) && !db.save(name, len, &trace) {
                    return Err(format!("cannot write {}", db.dir().display()));
                }
            }
        }
        passes.push(t0.elapsed().as_secs_f64());
    }
    Ok((passes, emulated))
}

struct Round {
    rows: Vec<RunResult>,
    job_ms: Vec<f64>,
    wall_s: f64,
    memoized: usize,
}

/// One pass of the plan through `Session::run_streaming`, rendering its
/// reports as `rcmc plan run` does. Job latencies are the gaps between
/// completions on the single worker. A panic or an error ends the round;
/// its missing rows count as failed.
fn session_round(plan: &Plan, store: PathBuf) -> Round {
    let session = Session::with_store(ResultStore::at(store))
        .without_trace_store()
        .with_jobs(1);
    let done = Mutex::new((Vec::new(), 0usize));
    let on_job = |p: &SweepProgress<'_>| {
        let mut d = done.lock().expect("progress lock");
        d.0.push(Instant::now());
        d.1 = p.memoized;
    };
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let rs = session.run_streaming(plan, &on_job)?;
        plan.render_reports(&rs)?;
        Ok::<_, String>(rs)
    }));
    let wall_s = t0.elapsed().as_secs_f64();
    let (stamps, memoized) = done.into_inner().unwrap_or_else(|e| e.into_inner());
    let job_ms = stamps
        .iter()
        .scan(t0, |prev, &t| {
            let ms = (t - *prev).as_secs_f64() * 1e3;
            *prev = t;
            Some(ms)
        })
        .collect();
    let rows = match result {
        Ok(Ok(rs)) => rs.rows().to_vec(),
        Ok(Err(e)) => {
            eprintln!("rcmc-perfbench: plan '{}' failed: {e}", plan.name);
            Vec::new()
        }
        Err(_) => Vec::new(),
    };
    Round {
        rows,
        job_ms,
        wall_s,
        memoized,
    }
}

/// The traced run: the plan replayed serially through each layer's public
/// calls, untraced and with spans, then served once from the traced
/// replay's store by an in-process serve loop.
fn traced(
    plan: &Plan,
    db: &TraceDb,
    mut tracer: Tracer,
    emulated_insns: u64,
    digests: &Digests,
    scratch: &Scratch,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let len = BUDGET.trace_len();
    let decoded_bytes = replay::decode_stored(db, len, &mut tracer)?;

    // The untraced and traced replays alternate benchmark by benchmark
    // (each step is the plan narrowed to one benchmark), so both see the
    // same host slow phases, and swap order every step (ABBA), so neither
    // always runs second on warm caches.
    let (off_store, on_store) = (scratch.path("replay-off"), scratch.path("replay-on"));
    let (off_db, on_db) = (
        ResultStore::at(off_store.clone()),
        ResultStore::at(on_store.clone()),
    );
    let mut off = Tracer::new(false);
    let mut counters = Counters::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut rows_off, mut rows) = (Vec::new(), Vec::new());
    for (i, bench) in plan.benches.iter().enumerate() {
        let spec = serde::Serialize::to_value(&plan.clone().benches([bench.as_str()]));
        for traced in [i % 2 == 1, i % 2 == 0] {
            let t0 = Instant::now();
            if traced {
                let step = replay::replay(&spec, &on_db, None, &mut tracer, &mut counters)?;
                traced_s += t0.elapsed().as_secs_f64();
                rows.extend(step);
            } else {
                let step =
                    replay::replay(&spec, &off_db, None, &mut off, &mut Counters::default())?;
                untraced_s += t0.elapsed().as_secs_f64();
                rows_off.extend(step);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&off_store);
    let probe = replay::serve_probe(&serde::Serialize::to_value(plan), on_store, None)?;
    let rows = ResultSet::from_rows(rows).rows().to_vec();
    let rows_off = ResultSet::from_rows(rows_off).rows().to_vec();

    // Every row is checked against its digest, and the traced, untraced and
    // served rows must agree.
    let text = replay::rows_text(&rows);
    out.attempted += rows.len() as u64 + 2;
    out.failed += rows.iter().filter(|r| !digests.check(r, &BUDGET)).count() as u64;
    out.failed += u64::from(replay::rows_text(&rows_off) != text);
    out.failed += u64::from(
        probe
            .rows
            .iter()
            .map(Value::to_compact_string)
            .collect::<Vec<_>>()
            != text,
    );
    out.meta("replay_jobs", num(counters.executed));

    let inputs = LayerInputs {
        counters,
        traced_s,
        untraced_s,
        emulated_insns,
        decoded_bytes,
        cache_bytes: trace_cache_bytes(),
        serve_first_event_ms: probe.first_event_ms,
        serve_coalesce_hit_rate: probe.hits as f64 / probe.jobs.max(1) as f64,
        serve_executed: probe.executed,
    };
    replay::report_layers(&mut out, &tracer, &inputs);
    out.spans = Some(tracer);
    Ok(out)
}
