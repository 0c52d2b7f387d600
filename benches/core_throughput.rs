//! core_throughput — hot-loop throughput of the simulator, written whole
//! to `BENCH_core.json` at the repository root (atomic rename, like the
//! other BENCH files). This target is the file's only writer.
//!
//! * `core_throughput` — one serial one-core run per topology at the
//!   8-cluster 1-bus 2IW design point, reporting simulated cycles (and
//!   committed instructions) per wall-second. Every row is measured twice
//!   — event-driven (the default wheel that fast-forwards dead cycles) and
//!   forced cycle-stepped — so each row carries the wheel's skip rate, its
//!   exact skipped-cycle count (so a change to a wake bound shows up
//!   exactly in the diff) and its speedup over stepping every cycle. The
//!   stall-heavy long-hop and slow-memory rows are where skipping pays
//!   most. The `cluster_scaling` rows sweep `n_clusters` up to the
//!   MAX_CLUSTERS=64 ceiling on the sparse active-cluster scans, and the
//!   `machine_grid` rows time every machine-registry family on the ring
//!   and the conventional bus, built through `ConfigSpec` resolution.
//! * `steering_cross` — one run per (steering policy × topology) pair, so
//!   a steering-layer or interconnect change that slows any pair shows up.
//! * `components` — the hot components no other number isolates (branch
//!   predictors, L1D access, fabric sends on every topology, steering
//!   algorithms), each a fixed kernel timed over [`REPS`] repetitions;
//!   median and quartiles of ns per operation, and the median as a ratio
//!   to a reference kernel no model change touches (FNV-1a over 4 KiB),
//!   so two files from hosts or runs of different speed compare.
//! * `_meta` — host cores, git revision and the component rep count.
//!
//! Core windows are fixed (not `RCMC_INSTRS`) and the result store is
//! never consulted, so the numbers measure pure simulation work and stay
//! comparable run to run. Traces are pre-warmed, so emulation cost is
//! excluded (`BENCH_trace.json` `emulate_s` tracks it). A mix of one
//! communication-heavy INT and one FP benchmark keeps both the steering
//! and the issue/bus paths hot.

mod common;

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use common::{meta, obj};
use ring_clustered::core::queues::IssueQueue;
use ring_clustered::core::steering::{self, SteerCtx};
use ring_clustered::core::value::ValueTable;
use ring_clustered::core::{Core, CoreConfig, DistanceLut, Fabric, Steering, Topology};
use ring_clustered::emu::Trace;
use ring_clustered::sim::config::{
    make, make_pair, steering_name, topology_name, SimConfig, ALL_STEERINGS, ALL_TOPOLOGIES,
};
use ring_clustered::sim::machines::REGISTRY;
use ring_clustered::sim::plan::ConfigSpec;
use ring_clustered::sim::runner::{cached_trace, Budget};
use ring_clustered::uarch::{
    Bimodal, CacheConfig, Gshare, HybridPredictor, PredictorConfig, SetAssocCache,
};
use serde::json::Value;

const BENCHES: [&str; 2] = ["gzip", "swim"];

/// Timed repetitions of each component kernel.
const REPS: usize = 200;

/// `x` rounded to `places` decimals.
fn round(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((x * scale).round() / scale)
}

/// One measurement pass over both benchmarks' traces: total (cycles,
/// committed, skipped, whole-run cycles, wall seconds).
fn run_mode(
    traces: &[Arc<Trace>],
    cfg: &SimConfig,
    budget: &Budget,
    event_driven: bool,
) -> (u64, u64, u64, u64, f64) {
    let (mut cycles, mut committed, mut skipped, mut total) = (0u64, 0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for trace in traces {
        let mut core = Core::new(cfg.core.clone(), cfg.mem, cfg.pred, trace);
        core.set_event_driven(event_driven);
        let s = core.run_with_warmup(budget.warmup, budget.measure);
        cycles += s.cycles;
        committed += s.committed;
        skipped += core.skipped_cycles();
        total += core.stats().cycles;
    }
    (
        cycles,
        committed,
        skipped,
        total,
        t0.elapsed().as_secs_f64(),
    )
}

/// Per-topology rows (both modes), cluster scaling and the machine grid.
fn core_throughput(traces: &[Arc<Trace>], budget: &Budget) -> Vec<(&'static str, Value)> {
    let mut rows: Vec<(String, SimConfig)> = ALL_TOPOLOGIES
        .iter()
        .map(|&t| (topology_name(t).to_string(), make(t, 8, 2, 1)))
        .collect();
    // Stall-heavy rows: a long hop stretches every bus reservation, so
    // dispatch and issue spend most cycles waiting — the wheel's best case.
    for (topo, hop) in [
        (Topology::Conv, 4),
        (Topology::Conv, 7),
        (Topology::Ring, 7),
    ] {
        let mut cfg = make(topo, 8, 2, 1);
        cfg.core.hop_latency = hop;
        rows.push((format!("{}~hop{hop}", topology_name(topo)), cfg));
    }
    // Memory-bound row: a tiny L1D and a long miss penalty leave the
    // pipeline with whole hundreds-of-cycles windows where nothing can
    // retire, issue or dispatch — exactly what the wheel fast-forwards.
    let mut slow = make(Topology::Conv, 8, 2, 1);
    slow.mem.l1d.size = 1024;
    slow.mem.l1d.ways = 1;
    slow.mem.l2.size = 4 * 1024;
    slow.mem.mem_latency = 400;
    rows.push(("Conv~slowmem".into(), slow));

    println!("\nCore throughput (serial, one core, 8clus_1bus_2IW)");
    println!("---------------------------------------------------");
    let mut runs = Vec::new();
    for (name, cfg) in &rows {
        let (cycles, committed, skipped, total, dt) = run_mode(traces, cfg, budget, true);
        let (_, _, _, _, dt_stepped) = run_mode(traces, cfg, budget, false);
        let mcps = cycles as f64 / dt / 1e6;
        let mips = committed as f64 / dt / 1e6;
        let mcps_stepped = cycles as f64 / dt_stepped / 1e6;
        let skip_rate = skipped as f64 / total as f64;
        let speedup = dt_stepped / dt;
        println!(
            "{name:10} {cycles:>9} cycles {committed:>7} insns {dt:>7.3} s  \
             {mcps:>7.2} Mcycles/s {mips:>6.2} Minsns/s  \
             skip {:>5.1}%  {speedup:>5.2}x vs stepped",
            skip_rate * 1e2
        );
        runs.push(obj(vec![
            ("topology", Value::Str(name.clone())),
            ("cycles", Value::Num(cycles as f64)),
            ("committed", Value::Num(committed as f64)),
            ("wall_s", round(dt, 3)),
            ("mcycles_per_s", round(mcps, 3)),
            ("minsns_per_s", round(mips, 3)),
            ("event_driven", Value::Bool(true)),
            ("skip_rate", round(skip_rate, 4)),
            ("skipped_cycles", Value::Num(skipped as f64)),
            ("mcycles_per_s_stepped", round(mcps_stepped, 3)),
            ("speedup_vs_stepped", round(speedup, 3)),
        ]));
    }

    // Cluster-count scaling on the sparse active-cluster scans. Hier keeps
    // a single shared inter-group link at every size, so most of a big
    // machine sits idle-but-allocated — exactly what the
    // `ready_mask`/`comm_mask` walks skip. Throughput should degrade far
    // slower than linearly in n_clusters.
    println!("\nCluster scaling (Hier, 1 bus, 2IW, sparse scans)");
    println!("------------------------------------------------");
    let mut scaling = Vec::new();
    for n in [4usize, 16, 32, 64] {
        let cfg = make(Topology::Hier, n, 2, 1);
        let (cycles, committed, _, _, dt) = run_mode(traces, &cfg, budget, true);
        let mcps = cycles as f64 / dt / 1e6;
        println!("Hier{n:<3}    {cycles:>9} cycles {committed:>7} insns  {mcps:>7.2} Mcycles/s");
        scaling.push(obj(vec![
            ("topology", Value::Str(format!("Hier{n}"))),
            ("n_clusters", Value::Num(n as f64)),
            ("cycles", Value::Num(cycles as f64)),
            ("committed", Value::Num(committed as f64)),
            ("mcycles_per_s", round(mcps, 3)),
        ]));
    }

    // Machine-registry grid: every family on the ring and the conventional
    // bus, built exactly the way plan specs build them (ConfigSpec
    // resolution, so names carry the `~m:` tags and the timings correspond
    // to real store rows).
    println!("\nMachine grid (registry families x ring/conv)");
    println!("--------------------------------------------");
    let mut machine_grid = Vec::new();
    for family in REGISTRY.iter() {
        for topo in ["ring", "conv"] {
            let cfg = ConfigSpec {
                machine: Some(family.name.to_string()),
                topology: Some(topo.to_string()),
                ..ConfigSpec::default()
            }
            .resolve()
            .expect("registry family resolves")
            .remove(0);
            let (cycles, committed, _, _, dt) = run_mode(traces, &cfg, budget, true);
            let mcps = cycles as f64 / dt / 1e6;
            let ipc = committed as f64 / cycles as f64;
            println!(
                "{:<10} {:<42} {cycles:>9} cycles  ipc {ipc:>5.3}  {mcps:>7.2} Mcycles/s",
                family.name, cfg.name
            );
            machine_grid.push(obj(vec![
                ("family", Value::Str(family.name.to_string())),
                ("config", Value::Str(cfg.name.clone())),
                ("cycles", Value::Num(cycles as f64)),
                ("committed", Value::Num(committed as f64)),
                ("ipc", round(ipc, 4)),
                ("mcycles_per_s", round(mcps, 3)),
            ]));
        }
    }

    vec![
        ("runs", Value::Arr(runs)),
        ("cluster_scaling", Value::Arr(scaling)),
        ("machine_grid", Value::Arr(machine_grid)),
    ]
}

/// One event-driven run per (steering policy × topology) pair.
fn steering_cross(traces: &[Arc<Trace>], budget: &Budget) -> Value {
    println!("\nSteering-cross throughput (serial, one core, 8clus_1bus_2IW)");
    println!("-------------------------------------------------------------");
    let mut pairs = Vec::new();
    for topo in ALL_TOPOLOGIES {
        for steering in ALL_STEERINGS {
            let cfg = make_pair(topo, steering, 8, 2, 1);
            let (cycles, committed, _, _, dt) = run_mode(traces, &cfg, budget, true);
            let mcps = cycles as f64 / dt / 1e6;
            println!(
                "{:6} x {:6} {cycles:>9} cycles {dt:>7.3} s  {mcps:>7.2} Mcycles/s",
                topology_name(topo),
                steering_name(steering),
            );
            pairs.push(obj(vec![
                ("topology", Value::Str(topology_name(topo).into())),
                ("steering", Value::Str(steering_name(steering).into())),
                ("cycles", Value::Num(cycles as f64)),
                ("committed", Value::Num(committed as f64)),
                ("wall_s", round(dt, 3)),
                ("mcycles_per_s", round(mcps, 3)),
            ]));
        }
    }
    Value::Arr(pairs)
}

/// The `components` rows. The first kernel timed is the reference, and
/// every row gives its median as a ratio to the reference's too.
#[derive(Default)]
struct Components {
    reference: Option<f64>,
    rows: Vec<Value>,
}

impl Components {
    /// Time `kernel` (which performs `ops` operations per call) over
    /// [`REPS`] calls after a few untimed ones; one row of ns per operation
    /// (median and quartiles).
    fn time(&mut self, group: &str, name: &str, ops: usize, mut kernel: impl FnMut()) {
        for _ in 0..REPS / 10 {
            kernel();
        }
        let mut ns: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                kernel();
                t0.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let [q1, median, q3] = [REPS / 4, REPS / 2, 3 * REPS / 4].map(|i| ns[i]);
        let ratio = median / *self.reference.get_or_insert(median);
        println!(
            "{group:8} {name:20} {median:>8.2} ns/op  (q1 {q1:.2}, q3 {q3:.2})  {ratio:>6.2}x ref"
        );
        self.rows.push(obj(vec![
            ("group", Value::Str(group.into())),
            ("name", Value::Str(name.into())),
            ("ops", Value::Num(ops as f64)),
            ("ns_per_op_median", round(median, 3)),
            ("ns_per_op_q1", round(q1, 3)),
            ("ns_per_op_q3", round(q3, 3)),
            ("median_to_ref", round(ratio, 3)),
        ]));
    }

    /// A predictor kernel: `step` (predict + update) over a strided PC
    /// stream, 3/4 taken.
    fn bpred(&mut self, name: &str, mut step: impl FnMut(u32, bool)) {
        let mut pc = 0u32;
        self.time("bpred", name, 1024, || {
            for _ in 0..1024 {
                pc = pc.wrapping_add(97);
                step(pc, pc & 3 != 0);
            }
        })
    }

    /// A fabric kernel: 1024 cycles on `cfg`'s fabric, sending from
    /// cluster `from` to `(from + 1 + from % 6) % 8` (a path of
    /// `1 + from % 6` segments on the ring) on every `every`-th cycle,
    /// `from` cycling over 0..8. One operation is one cycle.
    fn bus(&mut self, name: &str, cfg: CoreConfig, every: u64) {
        let mut fabric = Fabric::new(&cfg);
        let (mut from, mut now) = (0usize, 0u64);
        self.time("bus", name, 1024, || {
            for _ in 0..1024 {
                if now.is_multiple_of(every) {
                    from = (from + 1) % 8;
                    black_box(fabric.try_send(from, (from + 1 + from % 6) % 8, now));
                }
                now += 1;
            }
        })
    }
}

/// The reference kernel, then the predictor, cache, fabric and steering
/// kernels. The reference is FNV-1a over a fixed 4 KiB buffer, one
/// operation per byte: it runs no simulator code.
fn components() -> Value {
    println!("\nComponents ({REPS} reps each)");
    println!("---------------------------");
    let mut c = Components::default();
    let buf: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    c.time("ref", "fnv1a_4k", buf.len(), || {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in black_box(&buf) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        black_box(h);
    });

    let mut bimodal = Bimodal::new(2048);
    c.bpred("bimodal_1k_updates", |pc, taken| {
        black_box(bimodal.predict(pc));
        bimodal.update(pc, taken);
    });
    let mut gshare = Gshare::new(2048);
    c.bpred("gshare_1k_updates", |pc, taken| {
        black_box(gshare.predict(pc));
        gshare.update(pc, taken);
    });
    let mut hybrid = HybridPredictor::new(&PredictorConfig::default());
    c.bpred("hybrid_1k_updates", |pc, taken| {
        black_box(hybrid.predict(pc));
        hybrid.update(pc, taken);
    });

    let mut cache = SetAssocCache::new(CacheConfig {
        size: 32 * 1024,
        ways: 4,
        line: 32,
        latency: 2,
    });
    let mut addr = 0u64;
    c.time("cache", "l1d_stream_4k", 4096, || {
        for _ in 0..4096 {
            addr = addr.wrapping_add(40) & 0xf_ffff;
            black_box(cache.access(addr));
        }
    });

    // One send per cycle on every topology at the default 8 clusters and
    // 1 bus; then a 64-cluster 4-bus Mesh that sends once every 64 cycles,
    // so its cost is almost all idle cycles.
    for topology in ALL_TOPOLOGIES {
        let cfg = CoreConfig {
            topology,
            ..CoreConfig::default()
        };
        c.bus(&format!("send_1k_{}", topology_name(topology)), cfg, 1);
    }
    let mesh64 = CoreConfig {
        topology: Topology::Mesh,
        n_clusters: 64,
        n_buses: 4,
        ..CoreConfig::default()
    };
    c.bus("idle_1k_Mesh64", mesh64, 64);

    for (name, steering) in [
        ("ring_dep", Steering::RingDep),
        ("conv_dcount", Steering::ConvDcount),
        ("ssa", Steering::Ssa),
    ] {
        let cfg = CoreConfig {
            steering,
            ..CoreConfig::default()
        };
        let mut values = ValueTable::new(8, 48, 48);
        let vids: Vec<_> = (0..16).map(|i| values.alloc_ready(i % 8, false)).collect();
        let dist = DistanceLut::new(&cfg);
        let iq_int: Vec<_> = (0..cfg.n_clusters)
            .map(|_| IssueQueue::new(cfg.iq_int))
            .collect();
        let iq_fp: Vec<_> = (0..cfg.n_clusters)
            .map(|_| IssueQueue::new(cfg.iq_fp))
            .collect();
        // The tie-break phase advances as the core advances it.
        let mut phase = 0;
        c.time("steering", name, 1024, || {
            for i in 0..1024usize {
                let srcs = [vids[i % 16], vids[(i * 7 + 3) % 16]];
                let ctx = SteerCtx {
                    cfg: &cfg,
                    dist: &dist,
                    values: &values,
                    iq_int: &iq_int,
                    iq_fp: &iq_fp,
                    srcs: &srcs,
                };
                black_box(steering::steer(steering, phase, &ctx));
                if steering::rotates(steering, srcs.len()) {
                    phase = (phase + 1) % cfg.n_clusters;
                }
            }
        });
    }
    Value::Arr(c.rows)
}

fn main() {
    let budget = Budget {
        warmup: 5_000,
        measure: 60_000,
    };
    // Held for the whole bench, so no timed pass emulates.
    let traces = BENCHES.map(|b| cached_trace(b, budget.trace_len()));
    let window = |mut fields: Vec<(&'static str, Value)>| {
        let mut head = vec![
            ("benches", Value::Str(BENCHES.join("+"))),
            ("warmup", Value::Num(budget.warmup as f64)),
            ("measure", Value::Num(budget.measure as f64)),
        ];
        head.append(&mut fields);
        obj(head)
    };
    let core = window(core_throughput(&traces, &budget));
    let cross = window(vec![("pairs", steering_cross(&traces, &budget))]);
    let components = components();

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = obj(vec![
        (
            "_meta",
            meta(
                "core_throughput",
                root,
                vec![("component_reps", Value::Num(REPS as f64))],
            ),
        ),
        ("core_throughput", core),
        ("steering_cross", cross),
        ("components", components),
    ]);
    let path = root.join("BENCH_core.json");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, format!("{}\n", bench.to_pretty_string())).expect("write BENCH_core");
    std::fs::rename(&tmp, &path).expect("rename BENCH_core");
    println!("\nwrote {}", path.display());
}
