//! serve-mixed: a real `rcmc serve --jobs 2` child on a fresh result store
//! and a trace store that setup pre-populates, driven by one generator
//! thread acting as two closed-loop clients over the child's pipes.
//!
//! The seeded request mix: about 60% lookups of plans a warm-up pass
//! memoized (store reads, plan resolve, report render), 30% fresh one-job
//! plans with seed-chosen `rob`/`lsq`/`iq_int` overrides (per-job fixed costs:
//! `Core::new`, reduce, persist), and 10% shared fresh plans both clients
//! send together, so one job serves two requests through coalescing.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use ring_clustered::emu::{trace_program, TraceDb};
use ring_clustered::sim::runner::trace_cache_bytes;
use ring_clustered::sim::{Budget, ConfigSpec, Metric, Plan, ReportSpec, ResultStore};
use ring_clustered::workloads::benchmark;
use serde::json::Value;

use crate::digests::Digests;
use crate::replay::{self, Counters, LayerInputs};
use crate::spans::Tracer;
use crate::{host, num, obj, stats, Args, Outcome, Rng, Scratch};

/// A small window (a tenth of the sweeps'), so per-job fixed costs weigh
/// on every fresh request.
pub const BUDGET: Budget = Budget {
    warmup: 5_000,
    measure: 20_000,
};

/// Benchmarks the requests draw on, integer and FP.
pub const BENCHES: [&str; 8] = ["gzip", "mcf", "vpr", "gcc", "swim", "art", "equake", "mesa"];

/// Lookup plans: Ring vs Conv at a cluster count over two benchmarks
/// (indices into [`BENCHES`]).
pub const LOOKUPS: [(usize, usize, usize); 8] = [
    (8, 0, 4),
    (8, 1, 5),
    (8, 2, 6),
    (8, 3, 7),
    (4, 0, 1),
    (4, 4, 5),
    (4, 2, 3),
    (4, 6, 7),
];

/// Override values fresh plans draw from; every combination is a distinct
/// job with a committed digest.
const TOPOLOGIES: [&str; 2] = ["ring", "conv"];
const ROBS: [u32; 8] = [64, 96, 128, 160, 192, 224, 320, 384];
const LSQS: [u32; 5] = [32, 48, 64, 96, 112];
const IQ_INTS: [u32; 2] = [12, 20];

pub const CLIENTS: usize = 2;
/// Share of requests in shared rounds, and of lookups overall.
pub const SHARED_SHARE: f64 = 0.10;
pub const LOOKUP_SHARE: f64 = 0.60;

/// Requests per `--seconds` of nominal run length (a fixed amount of work,
/// never a time box), and setup passes per run (`setup_s` is the median).
const REQUESTS_PER_SECOND: f64 = 150.0;
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Fresh,
    Shared,
}

impl Kind {
    fn rows(self) -> usize {
        match self {
            Kind::Lookup => 4,
            Kind::Fresh | Kind::Shared => 1,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub kind: Kind,
    /// The plan spec sent inline in the `run` request.
    pub spec: Value,
}

/// One step of the closed loop: each client sends its own request, or both
/// send the same shared request together.
#[derive(Clone, Debug, PartialEq)]
pub enum Round {
    Solo(Vec<Request>),
    Shared(Request),
}

fn spec(plan: &Plan) -> Value {
    serde::Serialize::to_value(plan)
}

fn axes(topology: &str, clusters: usize) -> ConfigSpec {
    ConfigSpec {
        topology: Some(topology.into()),
        clusters: Some(clusters),
        ..ConfigSpec::default()
    }
}

pub fn lookup_plan(i: usize) -> Plan {
    let (clusters, a, b) = LOOKUPS[i];
    let name = |t: &str| {
        axes(t, clusters)
            .resolve()
            .expect("lookup configurations resolve")[0]
            .name
            .clone()
    };
    Plan::new(format!("lookup{i}"))
        .config(axes("ring", clusters))
        .config(axes("conv", clusters))
        .bench(BENCHES[a])
        .bench(BENCHES[b])
        .budget(BUDGET)
        .report(ReportSpec::speedup(vec![(name("ring"), name("conv"))]))
}

fn fresh_configs() -> Vec<ConfigSpec> {
    let mut out = Vec::new();
    for t in TOPOLOGIES {
        for rob in ROBS {
            for lsq in LSQS {
                for iq in IQ_INTS {
                    out.push(
                        axes(t, 8)
                            .with_override("rob", Value::Num(rob.into()))
                            .with_override("lsq", Value::Num(lsq.into()))
                            .with_override("iq_int", Value::Num(iq.into())),
                    );
                }
            }
        }
    }
    out
}

/// Every job a fresh or shared request can draw, as one plan.
pub fn fresh_space_plan() -> Plan {
    fresh_configs()
        .into_iter()
        .fold(Plan::new("fresh-space"), Plan::config)
        .benches(BENCHES)
        .budget(BUDGET)
}

/// The seeded request sequence of `rounds` rounds. Fresh and shared plans
/// draw distinct jobs, so each one simulates something new.
pub fn sequence(seed: u64, rounds: usize) -> Result<Vec<Round>, String> {
    let mut rng = Rng::new(seed);
    let mut jobs: Vec<(ConfigSpec, &str)> = fresh_configs()
        .into_iter()
        .flat_map(|c| BENCHES.map(|b| (c.clone(), b)))
        .collect();
    rng.shuffle(&mut jobs);
    let mut jobs = jobs.into_iter().enumerate();
    let mut fresh = |kind: Kind| {
        let (n, (config, bench)) = jobs
            .next()
            .ok_or("more fresh requests than distinct fresh jobs; lower --seconds")?;
        let plan = Plan::new(format!("fresh{n}"))
            .config(config)
            .bench(bench)
            .budget(BUDGET)
            .report(ReportSpec::grouped(Metric::Ipc));
        Ok::<_, String>(Request {
            kind,
            spec: spec(&plan),
        })
    };
    let lookups: Vec<Value> = (0..LOOKUPS.len()).map(|i| spec(&lookup_plan(i))).collect();
    let lookup_in_solo = LOOKUP_SHARE / (1.0 - SHARED_SHARE);
    let mut out = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        if rng.unit() < SHARED_SHARE {
            out.push(Round::Shared(fresh(Kind::Shared)?));
            continue;
        }
        let mut reqs = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            reqs.push(if rng.unit() < lookup_in_solo {
                Request {
                    kind: Kind::Lookup,
                    spec: lookups[rng.below(lookups.len())].clone(),
                }
            } else {
                fresh(Kind::Fresh)?
            });
        }
        out.push(Round::Solo(reqs));
    }
    Ok(out)
}

/// The requests in the order a serial replay issues them, with the ids the
/// closed loop gives them.
fn in_order(rounds: &[Round]) -> Vec<(String, &Request)> {
    let mut out = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        for c in 0..CLIENTS {
            let req = match round {
                Round::Solo(reqs) => &reqs[c],
                Round::Shared(req) => req,
            };
            out.push((request_id(r, c), req));
        }
    }
    out
}

fn request_id(round: usize, client: usize) -> String {
    format!("r{round}c{client}")
}

fn run_request(id: &str, spec: &Value) -> Value {
    obj(vec![
        ("id", Value::Str(id.into())),
        ("op", Value::Str("run".into())),
        ("plan", spec.clone()),
    ])
}

/// Scheduler counters from the `stats` op.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    submitted: f64,
    executed: f64,
    coalesced: f64,
    memoized: f64,
}

/// A `rcmc serve` child and its pipes; killed and reaped on drop.
struct Child {
    proc: std::process::Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Child {
    fn spawn(rcmc: &Path, store: &Path, traces: &Path) -> Result<Child, String> {
        let mut proc = Command::new(rcmc)
            .args(["serve", "--jobs", &CLIENTS.to_string(), "--store"])
            .arg(store)
            .arg("--trace-store")
            .arg(traces)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", rcmc.display()))?;
        let stdin = proc.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(proc.stdout.take().expect("piped stdout"));
        Ok(Child {
            proc,
            stdin,
            stdout,
        })
    }

    fn send(&mut self, v: &Value) -> Result<(), String> {
        writeln!(self.stdin, "{}", v.to_compact_string())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write to rcmc serve: {e}"))
    }

    fn next_event(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("rcmc serve closed its output".into()),
            Ok(_) => serde::json::parse(line.trim())
                .ok_or_else(|| format!("rcmc serve sent non-JSON: {line}")),
            Err(e) => Err(format!("read from rcmc serve: {e}")),
        }
    }

    /// Scheduler counters; call only with no request in flight.
    fn counts(&mut self) -> Result<Counts, String> {
        self.send(&obj(vec![
            ("id", Value::Str("stats".into())),
            ("op", Value::Str("stats".into())),
        ]))?;
        loop {
            let ev = self.next_event()?;
            if ev.get("event") != Some(&Value::Str("stats".into())) {
                continue;
            }
            let field = |k: &str| match ev.get("scheduler").and_then(|s| s.get(k)) {
                Some(Value::Num(n)) => *n,
                _ => 0.0,
            };
            return Ok(Counts {
                submitted: field("submitted"),
                executed: field("executed"),
                coalesced: field("coalesced"),
                memoized: field("memoized"),
            });
        }
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.send(&obj(vec![("op", Value::Str("shutdown".into()))]))?;
        while self.next_event()?.get("event") != Some(&Value::Str("bye".into())) {}
        let status = self
            .proc
            .wait()
            .map_err(|e| format!("wait for rcmc serve: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("rcmc serve exited with {status}"))
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

/// The `rcmc` binary built beside this one.
fn rcmc_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let rcmc = exe.with_file_name(format!("rcmc{}", std::env::consts::EXE_SUFFIX));
    if rcmc.is_file() {
        Ok(rcmc)
    } else {
        Err(format!(
            "{} is missing; build the package's rcmc binary",
            rcmc.display()
        ))
    }
}

/// Whether a `result` event carries the expected number of rows, each
/// matching its digest.
fn result_ok(ev: &Value, kind: Kind, digests: &Digests) -> bool {
    match ev.get("rows") {
        Some(Value::Arr(rows)) => {
            rows.len() == kind.rows() && rows.iter().all(|r| digests.check_value(r, &BUDGET))
        }
        _ => false,
    }
}

/// Send every lookup plan at once and wait for all results: memoizes the
/// lookups and decodes every trace from the store.
fn warm_up(child: &mut Child, digests: &Digests, out: &mut Outcome) -> Result<(), String> {
    for i in 0..LOOKUPS.len() {
        child.send(&run_request(&format!("w{i}"), &spec(&lookup_plan(i))))?;
    }
    let mut left = LOOKUPS.len();
    while left > 0 {
        let ev = child.next_event()?;
        match ev.get("event") {
            Some(Value::Str(k)) if k == "result" || k == "error" => {
                left -= 1;
                out.attempted += 1;
                if k == "error" || !result_ok(&ev, Kind::Lookup, digests) {
                    out.failed += 1;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// One finished request of the closed loop.
struct Done {
    id: String,
    kind: Kind,
    sent: Instant,
    first: Instant,
    done: Instant,
    rows: Vec<Value>,
}

/// The closed loop's state: where each client is in the sequence and what
/// is in flight.
struct Loop<'a> {
    child: &'a mut Child,
    rounds: &'a [Round],
    pos: [usize; CLIENTS],
    parked: [bool; CLIENTS],
    live: HashMap<String, (usize, Kind, Instant, Option<Instant>)>,
}

impl Loop<'_> {
    /// Send client `c`'s next request; at a shared round, park until the
    /// other client arrives, then send it from both back to back.
    fn advance(&mut self, c: usize) -> Result<(), String> {
        let rounds = self.rounds;
        let Some(round) = rounds.get(self.pos[c]) else {
            return Ok(());
        };
        match round {
            Round::Solo(reqs) => self.send(c, &reqs[c]),
            Round::Shared(req) => {
                self.parked[c] = true;
                if self.parked.iter().all(|&p| p) {
                    self.parked = [false; CLIENTS];
                    for client in 0..CLIENTS {
                        self.send(client, req)?;
                    }
                }
                Ok(())
            }
        }
    }

    fn send(&mut self, c: usize, req: &Request) -> Result<(), String> {
        let id = request_id(self.pos[c], c);
        self.child.send(&run_request(&id, &req.spec))?;
        self.live.insert(id, (c, req.kind, Instant::now(), None));
        Ok(())
    }
}

/// Run the sequence through the child; returns the finished requests and
/// the phase's wall seconds.
fn drive(
    child: &mut Child,
    rounds: &[Round],
    digests: &Digests,
    out: &mut Outcome,
) -> Result<(Vec<Done>, f64), String> {
    let mut lp = Loop {
        child,
        rounds,
        pos: [0; CLIENTS],
        parked: [false; CLIENTS],
        live: HashMap::new(),
    };
    let t0 = Instant::now();
    for c in 0..CLIENTS {
        lp.advance(c)?;
    }
    let mut done = Vec::with_capacity(rounds.len() * CLIENTS);
    while !lp.live.is_empty() {
        let ev = lp.child.next_event()?;
        let now = Instant::now();
        let (Some(Value::Str(id)), Some(Value::Str(kind))) = (ev.get("id"), ev.get("event")) else {
            continue;
        };
        if kind == "progress" {
            if let Some(entry) = lp.live.get_mut(id) {
                entry.3.get_or_insert(now);
            }
            continue;
        }
        if kind != "result" && kind != "error" {
            continue;
        }
        let Some((c, req_kind, sent, first)) = lp.live.remove(id) else {
            continue;
        };
        out.attempted += 1;
        if kind == "error" || !result_ok(&ev, req_kind, digests) {
            out.failed += 1;
        }
        let rows = match ev.get("rows") {
            Some(Value::Arr(rows)) => rows.clone(),
            _ => Vec::new(),
        };
        done.push(Done {
            id: id.clone(),
            kind: req_kind,
            sent,
            first: first.unwrap_or(now),
            done: now,
            rows,
        });
        lp.pos[c] += 1;
        lp.advance(c)?;
    }
    Ok((done, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let rounds =
        ((args.seconds as f64 * REQUESTS_PER_SECOND / CLIENTS as f64).round() as usize).max(10);
    let seq = sequence(args.seed, rounds)?;
    let digests = Digests::committed();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    let len = BUDGET.trace_len();
    out.meta("budget_warmup", num(BUDGET.warmup));
    out.meta("budget_measure", num(BUDGET.measure));
    out.meta("clients", num(CLIENTS));
    out.meta("rounds", num(rounds));
    out.meta("setup_reps", num(SETUP_REPS));

    // Preparation, outside every timed phase: emulate each trace the
    // requests use into a fresh trace store.
    let db = TraceDb::at(scratch.path("traces"));
    let mut emulated_insns = 0;
    for name in BENCHES {
        let program = benchmark(name).expect("suite benchmark").build();
        let trace = tracer
            .span("emu.trace", |_| trace_program(&program, len as usize))
            .map_err(|e| format!("{name} failed to emulate: {e}"))?;
        emulated_insns += trace.insns.len() as u64;
        if !db.save(name, len, &trace) {
            return Err(format!("cannot write {}", db.dir().display()));
        }
    }
    out.meta("setup_emulated", num(BENCHES.len()));

    // Setup, timed: start the service and memoize every lookup plan, which
    // also decodes every trace from the store.
    let rcmc = rcmc_exe()?;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut child = Child::spawn(&rcmc, &scratch.path(&format!("store-{rep}")), db.dir())?;
        warm_up(&mut child, &digests, &mut out)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            child.shutdown()?;
        } else {
            last = Some(child);
        }
    }
    let mut child = last.expect("at least one setup pass");
    let warm = child.counts()?;
    out.meta("warmup_executed", num(warm.executed));

    let (done, wall) = drive(&mut child, &seq, &digests, &mut out)?;
    let end = child.counts()?;
    let peak_rss_mb = host::peak_rss_mb(&child.proc.id().to_string())?;
    child.shutdown()?;
    let executed = end.executed - warm.executed;
    let submitted = end.submitted - warm.submitted;
    let hits = end.coalesced + end.memoized - warm.coalesced - warm.memoized;
    out.meta("requests", num(done.len()));
    for (key, kind) in [
        ("lookup_requests", Kind::Lookup),
        ("fresh_requests", Kind::Fresh),
        ("shared_requests", Kind::Shared),
    ] {
        out.meta(key, num(done.iter().filter(|d| d.kind == kind).count()));
    }
    out.meta("executed", num(executed));
    out.meta("coalesced", num(end.coalesced - warm.coalesced));

    if args.trace {
        let inputs = LayerInputs {
            serve_first_event_ms: stats::median(
                &done
                    .iter()
                    .map(|d| (d.first - d.sent).as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
            serve_coalesce_hit_rate: hits / submitted.max(1.0),
            serve_executed: executed as u64,
            emulated_insns,
            ..traced(&seq, &done, &db, &mut tracer, &digests, scratch, &mut out)?
        };
        for d in &done {
            let id = tracer.record("serve.request", None, d.sent, d.done);
            tracer.record("serve.first_event", Some(id), d.sent, d.first);
        }
        replay::report_layers(&mut out, &tracer, &inputs);
        out.spans = Some(tracer);
        return Ok(out);
    }

    // Simulated instructions delivered: every fresh job, and each shared
    // job once (both clients get the same coalesced row).
    let insns: u64 = done
        .iter()
        .filter(|d| d.kind == Kind::Fresh || (d.kind == Kind::Shared && d.id.ends_with("c0")))
        .flat_map(|d| &d.rows)
        .map(|r| match r.get("committed") {
            Some(Value::Num(n)) => BUDGET.warmup + *n as u64,
            _ => 0,
        })
        .sum();
    let latency: Vec<f64> = done
        .iter()
        .map(|d| (d.done - d.sent).as_secs_f64() * 1e3)
        .collect();
    let (p50, tail, pct) = stats::p50_and_tail(&latency);
    out.meta("tail_percentile", Value::Num(pct));
    out.metric("sim_minsns_per_s", insns as f64 / wall / 1e6, "Minsn/s");
    out.metric("requests_per_s", done.len() as f64 / wall, "1/s");
    out.metric("p50_ms", p50, "ms");
    out.metric("tail_ms", tail, "ms");
    out.metric("setup_s", stats::median(&setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    Ok(out)
}

/// The traced part: the trace store's decode rate, then the same request
/// sequence replayed in-process twice, untraced and with spans, each on a
/// store the lookup plans were first replayed into. Replayed rows must
/// equal the rows the service sent.
fn traced(
    seq: &[Round],
    done: &[Done],
    db: &TraceDb,
    tracer: &mut Tracer,
    digests: &Digests,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<LayerInputs, String> {
    let len = BUDGET.trace_len();
    let decoded_bytes = replay::decode_stored(db, len, tracer)?;
    let lookups: Vec<Value> = (0..LOOKUPS.len()).map(|i| spec(&lookup_plan(i))).collect();
    let order = in_order(seq);
    let served: HashMap<&str, Vec<String>> = done
        .iter()
        .map(|d| {
            (
                d.id.as_str(),
                d.rows.iter().map(Value::to_compact_string).collect(),
            )
        })
        .collect();

    // The untraced and traced replays alternate request by request, so
    // both see the same host slow phases, and swap order every request
    // (ABBA), so neither always runs second on warm caches.
    let warmed = |name: &str| -> Result<ResultStore, String> {
        let store = ResultStore::at(scratch.path(name));
        for l in &lookups {
            replay::replay(
                l,
                &store,
                Some(db),
                &mut Tracer::new(false),
                &mut Counters::default(),
            )?;
        }
        Ok(store)
    };
    let (off_store, on_store) = (warmed("replay-off")?, warmed("replay-on")?);
    let mut off = Tracer::new(false);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut counters = Counters::default();
    for (i, (id, req)) in order.iter().enumerate() {
        let (mut rows, mut rows_off) = (Vec::new(), Vec::new());
        for traced in [i % 2 == 1, i % 2 == 0] {
            let t0 = Instant::now();
            if traced {
                rows = replay::replay(&req.spec, &on_store, Some(db), tracer, &mut counters)?;
                traced_s += t0.elapsed().as_secs_f64();
            } else {
                rows_off = replay::replay(
                    &req.spec,
                    &off_store,
                    Some(db),
                    &mut off,
                    &mut Counters::default(),
                )?;
                untraced_s += t0.elapsed().as_secs_f64();
            }
        }
        let text = replay::rows_text(&rows);
        out.attempted += 1;
        let ok = rows.iter().all(|r| digests.check(r, &BUDGET))
            && replay::rows_text(&rows_off) == text
            && served.get(id.as_str()) == Some(&text);
        out.failed += u64::from(!ok);
    }
    Ok(LayerInputs {
        counters,
        traced_s,
        untraced_s,
        emulated_insns: 0,
        decoded_bytes,
        cache_bytes: trace_cache_bytes(),
        serve_first_event_ms: 0.0,
        serve_coalesce_hit_rate: 0.0,
        serve_executed: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (configuration, benchmark) job a one-job plan runs.
    fn job(r: &Request) -> String {
        let field = |k: &str| r.spec.get(k).map(Value::to_compact_string);
        format!("{:?} {:?}", field("configs"), field("benches"))
    }

    fn kinds(rounds: &[Round]) -> [usize; 3] {
        let mut n = [0; 3];
        for (_, req) in in_order(rounds) {
            n[req.kind as usize] += 1;
        }
        n
    }

    #[test]
    fn the_sequence_is_seeded_and_has_the_declared_mix() {
        let a = sequence(7, 500).unwrap();
        assert_eq!(a, sequence(7, 500).unwrap(), "same seed, same requests");
        assert_ne!(a, sequence(8, 500).unwrap(), "another seed, other requests");
        let [lookup, fresh, shared] = kinds(&a);
        let total = (lookup + fresh + shared) as f64;
        assert_eq!(total, 1000.0);
        let share = |n: usize| n as f64 / total;
        assert!((share(lookup) - 0.60).abs() < 0.05, "lookups {lookup}");
        assert!((share(fresh) - 0.30).abs() < 0.05, "fresh {fresh}");
        assert!((share(shared) - 0.10).abs() < 0.04, "shared {shared}");
        // Fresh and shared plans never repeat a job; both clients of a
        // shared round send the same plan.
        let mut seen = std::collections::HashSet::new();
        for round in &a {
            match round {
                Round::Solo(reqs) => {
                    assert_eq!(reqs.len(), CLIENTS);
                    for r in reqs.iter().filter(|r| r.kind == Kind::Fresh) {
                        assert!(seen.insert(job(r)));
                    }
                }
                Round::Shared(r) => assert!(seen.insert(job(r))),
            }
        }
    }

    #[test]
    fn too_many_fresh_requests_are_refused() {
        let space = fresh_configs().len() * BENCHES.len();
        assert!(sequence(1, space * 2).is_err());
    }
}
