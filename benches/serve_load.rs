//! serve_load — load-generator benchmark for the concurrent `rcmc serve`.
//!
//! Spawns a real `rcmc serve` child on a **fresh** result store (so the
//! coalescing numbers are not polluted by warm memoization) and drives it
//! over pipes with scripted clients, in two phases:
//!
//! * **herd** — N clients submit the *same* plan at once (the thundering
//!   herd the scheduler's job coalescing exists for). Asserts the hard
//!   invariants from the scheduler contract: total simulations executed
//!   equals the solo-run job count, the coalescing hit rate is ≥ 0.8 for
//!   N = 8, and every client's rows are bit-identical.
//! * **mixed** — closed-loop clients replay a rotating mix of
//!   `examples/specs/` plans (each sends its next request when its result
//!   arrives), measuring end-to-end request latency and throughput.
//!
//! Emits `BENCH_serve.json` at the repo root (atomic rename, like the
//! other BENCH files) with top-level `requests_per_s`, `p50_ms`, `p99_ms`
//! and `coalesce_hit_rate`, plus per-phase sections, and a `_meta` with
//! the host's core count and the git revision. Knobs:
//! `RCMC_SERVE_CLIENTS` (default 8) and `RCMC_SERVE_ROUNDS` (default 3).

mod common;

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use common::{meta, obj};
use serde::json::Value;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// One `rcmc serve` child and its pipes.
struct Serve {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Serve {
    fn spawn(store: &Path) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rcmc"))
            .args(["serve", "--store"])
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("failed to spawn rcmc serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Serve {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("serve child closed stdin");
        self.stdin.flush().expect("serve child closed stdin");
    }

    /// Next response event; errors from the service fail the bench loudly.
    fn next_event(&mut self) -> Value {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read from serve");
        assert!(n > 0, "serve child closed stdout unexpectedly");
        let v = serde::json::parse(line.trim()).expect("serve output must be JSON");
        if v.get("event") == Some(&Value::Str("error".into())) {
            panic!("serve error event: {line}");
        }
        v
    }

    /// Read events until `count` results arrive, recording each result's
    /// id and arrival time. Returns (id → (arrival, rows)) in event order.
    fn collect_results(&mut self, count: usize) -> Vec<(String, Instant, Value)> {
        let mut out = Vec::new();
        while out.len() < count {
            let ev = self.next_event();
            if ev.get("event") == Some(&Value::Str("result".into())) {
                let Some(Value::Str(id)) = ev.get("id") else {
                    panic!("result without string id: {ev:?}");
                };
                let rows = ev.get("rows").expect("result has rows").clone();
                out.push((id.clone(), Instant::now(), rows));
            }
        }
        out
    }

    /// The scheduler's lifetime counters via the `stats` op.
    fn stats(&mut self) -> HashMap<String, f64> {
        self.send(r#"{"id": "stats", "op": "stats"}"#);
        loop {
            let ev = self.next_event();
            if ev.get("event") == Some(&Value::Str("stats".into())) {
                let Some(Value::Obj(fields)) = ev.get("scheduler") else {
                    panic!("stats without scheduler object: {ev:?}");
                };
                return fields
                    .iter()
                    .filter_map(|(k, v)| match v {
                        Value::Num(n) => Some((k.clone(), *n)),
                        _ => None,
                    })
                    .collect();
            }
        }
    }

    fn shutdown(mut self) {
        self.send(r#"{"op": "shutdown"}"#);
        let status = self.child.wait().expect("wait for serve child");
        assert!(status.success(), "rcmc serve exited with {status}");
    }
}

/// Nearest-rank percentile of unsorted latencies, in milliseconds.
fn percentile_ms(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The herd plan: 2 configs × 2 benches = 4 jobs solo.
const HERD_PLAN: &str = r#"{"name": "herd", "configs": [{"topology": "ring", "clusters": 4}, {"topology": "conv", "clusters": 4}], "benches": ["swim", "gzip"], "budget": {"warmup": 500, "measure": 2000}}"#;
const HERD_SOLO_JOBS: f64 = 4.0;

fn run_herd(serve: &mut Serve, clients: usize) -> Value {
    let started = Instant::now();
    let sent = Instant::now();
    for c in 0..clients {
        serve.send(&format!(
            r#"{{"id": "h{c}", "op": "run", "plan": {HERD_PLAN}}}"#
        ));
    }
    let results = serve.collect_results(clients);
    let wall_s = started.elapsed().as_secs_f64();
    // Every client must see bit-identical rows.
    for (id, _, rows) in &results[1..] {
        assert_eq!(
            rows, &results[0].2,
            "herd client {id} got different rows than h0"
        );
    }
    let stats = serve.stats();
    let executed = stats["executed"];
    let submitted = stats["submitted"];
    let hit_rate = (stats["coalesced"] + stats["memoized"]) / submitted;
    // The coalescing contract, enforced here so CI fails if it regresses.
    assert_eq!(
        executed, HERD_SOLO_JOBS,
        "herd of {clients} must cost exactly the solo job count"
    );
    assert_eq!(submitted, HERD_SOLO_JOBS * clients as f64);
    if clients >= 5 {
        assert!(
            hit_rate >= 0.8,
            "herd coalesce hit rate {hit_rate:.3} below 0.8"
        );
    }
    let mut lat: Vec<f64> = results
        .iter()
        .map(|(_, at, _)| at.duration_since(sent).as_secs_f64() * 1e3)
        .collect();
    println!(
        "herd: {clients} clients, executed {executed}, hit rate {hit_rate:.3}, \
         p50 {:.1} ms, p99 {:.1} ms",
        percentile_ms(&mut lat, 0.50),
        percentile_ms(&mut lat, 0.99),
    );
    obj(vec![
        ("clients", Value::Num(clients as f64)),
        ("jobs_solo", Value::Num(HERD_SOLO_JOBS)),
        ("executed", Value::Num(executed)),
        ("submitted", Value::Num(submitted)),
        ("coalesce_hit_rate", Value::Num(hit_rate)),
        ("requests_per_s", Value::Num(clients as f64 / wall_s)),
        ("p50_ms", Value::Num(percentile_ms(&mut lat, 0.50))),
        ("p99_ms", Value::Num(percentile_ms(&mut lat, 0.99))),
    ])
}

/// Load the rotating plan mix: the committed example specs, inlined into
/// run requests.
fn mixed_plans() -> Vec<String> {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    ["serve_mixed.json", "plan_smoke.json"]
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(specs.join(name))
                .unwrap_or_else(|e| panic!("read {name}: {e}"));
            serde::json::parse(&text)
                .unwrap_or_else(|| panic!("{name} is not valid JSON"))
                .to_compact_string()
        })
        .collect()
}

fn run_mixed(
    serve: &mut Serve,
    clients: usize,
    rounds: usize,
    herd: &HashMap<String, f64>,
) -> Value {
    let plans = mixed_plans();
    let req = |c: usize, r: usize| {
        format!(
            r#"{{"id": "m{c}-{r}", "op": "run", "plan": {}}}"#,
            plans[(c + r) % plans.len()]
        )
    };
    let total = clients * rounds;
    let started = Instant::now();
    // Closed loop: every client has one request in flight; its result
    // triggers the next round. Send times are tracked per request id.
    let mut sent_at: HashMap<String, Instant> = HashMap::new();
    let mut next_round: HashMap<usize, usize> = HashMap::new();
    for c in 0..clients {
        sent_at.insert(format!("m{c}-0"), Instant::now());
        next_round.insert(c, 1);
        serve.send(&req(c, 0));
    }
    let mut lat: Vec<f64> = Vec::with_capacity(total);
    while lat.len() < total {
        let (id, at, _) = serve.collect_results(1).pop().unwrap();
        lat.push(at.duration_since(sent_at[&id]).as_secs_f64() * 1e3);
        let client: usize = id[1..id.find('-').unwrap()].parse().unwrap();
        let round = next_round[&client];
        if round < rounds {
            next_round.insert(client, round + 1);
            sent_at.insert(format!("m{client}-{round}"), Instant::now());
            serve.send(&req(client, round));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // Phase-local coalescing: delta against the post-herd snapshot.
    let stats = serve.stats();
    let submitted = stats["submitted"] - herd["submitted"];
    let hits = (stats["coalesced"] + stats["memoized"]) - (herd["coalesced"] + herd["memoized"]);
    let hit_rate = if submitted > 0.0 {
        hits / submitted
    } else {
        0.0
    };
    println!(
        "mixed: {clients} clients × {rounds} rounds, {:.1} req/s, \
         p50 {:.1} ms, p99 {:.1} ms, hit rate {hit_rate:.3}",
        total as f64 / wall_s,
        percentile_ms(&mut lat, 0.50),
        percentile_ms(&mut lat, 0.99),
    );
    obj(vec![
        ("clients", Value::Num(clients as f64)),
        ("rounds", Value::Num(rounds as f64)),
        ("requests", Value::Num(total as f64)),
        ("requests_per_s", Value::Num(total as f64 / wall_s)),
        ("p50_ms", Value::Num(percentile_ms(&mut lat, 0.50))),
        ("p99_ms", Value::Num(percentile_ms(&mut lat, 0.99))),
        ("coalesce_hit_rate", Value::Num(hit_rate)),
    ])
}

fn main() {
    let clients = env_usize("RCMC_SERVE_CLIENTS", 8);
    let rounds = env_usize("RCMC_SERVE_ROUNDS", 3);
    let store: PathBuf =
        std::env::temp_dir().join(format!("rcmc-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let mut serve = Serve::spawn(&store);
    let herd = run_herd(&mut serve, clients);
    let herd_stats = serve.stats();
    let mixed = run_mixed(&mut serve, clients, rounds, &herd_stats);
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&store);

    // Top level mirrors the mixed (steady-state) latency/throughput and
    // the herd's coalescing rate — the acceptance metrics.
    let get = |section: &Value, key: &str| section.get(key).unwrap().clone();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = obj(vec![
        (
            "_meta",
            meta(
                "serve_load",
                root,
                vec![
                    ("clients", Value::Num(clients as f64)),
                    ("rounds", Value::Num(rounds as f64)),
                ],
            ),
        ),
        ("requests_per_s", get(&mixed, "requests_per_s")),
        ("p50_ms", get(&mixed, "p50_ms")),
        ("p99_ms", get(&mixed, "p99_ms")),
        ("coalesce_hit_rate", get(&herd, "coalesce_hit_rate")),
        ("herd", herd),
        ("mixed", mixed),
    ]);
    let path = root.join("BENCH_serve.json");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, format!("{}\n", bench.to_pretty_string())).expect("write BENCH_serve");
    std::fs::rename(&tmp, &path).expect("rename BENCH_serve");
    println!("wrote {}", path.display());
}
