//! Beyond-paper ablation studies, expressed as declarative plans: each
//! grid is a list of [`ConfigSpec`] axes/override entries —
//! exactly what a JSON plan file could state — instead of hand-mutated
//! `SimConfig`s pushed through the session's explicit-sweep escape hatch.
//! The specs resolve to the same tagged names the plan layer memoizes
//! under, so these grids share store rows with `rcmc plan run`.
//!
//! 1. **steering × topology cross** — is the win the ring bypass or the
//!    dependence steering? All four (topology, steering) axes pairs.
//! 2. **copy-release policy** — §3's proposed alternative (release-on-read)
//!    via the `{"copy_release": "on_read"}` override vs the evaluated
//!    release-at-redefiner-commit baseline.
//! 3. **cluster-count scaling** — 2/4/8/16 clusters via the `clusters`
//!    axis (generalizes the paper's scalability claim).
//! 4. **bus-latency scaling** — 1–4 cycles/hop via the `hop_latency` axis
//!    (generalizes Figure 12).
//!
//! The reductions are `ResultSet` combinators keyed by the specs' resolved
//! names.

use rcmc_sim::experiments::plans;
use rcmc_sim::plan::{ConfigSpec, Plan};
use rcmc_sim::report::render_speedups;
use rcmc_sim::runner::Budget;
use rcmc_sim::Session;
use serde_json::Value;

/// The display/store name a spec resolves to — the key its rows live
/// under in the `ResultSet`.
fn name_of(spec: &ConfigSpec) -> String {
    spec.resolve()
        .expect("ablation spec must resolve")
        .remove(0)
        .name
}

/// A single-axes-point spec: one (topology, steering) cell.
fn pair(topology: &str, steering: &str) -> ConfigSpec {
    ConfigSpec {
        topology: Some(topology.to_string()),
        steering: Some(steering.to_string()),
        ..ConfigSpec::default()
    }
}

fn run(
    session: &Session,
    name: &str,
    specs: &[ConfigSpec],
    benches: &[&str],
) -> rcmc_sim::ResultSet {
    let plan = specs
        .iter()
        .fold(Plan::new(name), |p, s| p.config(s.clone()))
        .benches(benches.iter().copied())
        .budget(Budget::default());
    session.run(&plan).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn main() {
    // The workspace's shared result store and the env-derived pool
    // (`RCMC_JOBS`), so pairs the CLI already ran are memoized.
    let session = Session::new();
    // A representative subset keeps the ablations fast; the main figures use
    // the full suite.
    let benches: Vec<&str> = vec![
        "swim", "galgel", "ammp", "equake", "lucas", "mcf", "gcc", "gzip", "twolf", "vpr",
    ];

    // ---- 1. steering × topology cross ----
    let cross: Vec<ConfigSpec> = ["ring", "conv"]
        .iter()
        .flat_map(|t| ["ringdep", "dcount"].map(|s| pair(t, s)))
        .collect();
    let rs = run(&session, "ablation-cross", &cross, &benches);
    let base = name_of(&pair("conv", "dcount"));
    let rows: Vec<_> = cross
        .iter()
        .map(|s| {
            let n = name_of(s);
            let speedup = rs.speedup(&n, &base);
            (n, speedup)
        })
        .collect();
    println!(
        "\n{}",
        render_speedups("Ablation 1. Steering x topology (vs Conv+DCOUNT)", &rows)
    );

    // ---- 2. copy-release policy ----
    // The paper's evaluated policy (release at redefiner commit) is the
    // plain default; the §3 alternative rides in as a whitelisted override
    // and gets its own `~copy_releaseon_read`-tagged store row.
    let at_commit = ConfigSpec::default();
    let on_read = ConfigSpec::default().with_override("copy_release", Value::Str("on_read".into()));
    let rs = run(
        &session,
        "ablation-release",
        &[at_commit.clone(), on_read.clone()],
        &benches,
    );
    let rows = vec![(
        "release_on_read_vs_at_commit".to_string(),
        rs.speedup(&name_of(&on_read), &name_of(&at_commit)),
    )];
    println!(
        "\n{}",
        render_speedups("Ablation 2. Copy release policy (Ring 8c 1bus 2IW)", &rows)
    );

    // ---- 3. cluster scaling ----
    let scale = |topology: &str, n: usize| ConfigSpec {
        topology: Some(topology.to_string()),
        clusters: Some(n),
        ..ConfigSpec::default()
    };
    let ns = [2usize, 4, 8, 16];
    let specs: Vec<ConfigSpec> = ns
        .iter()
        .flat_map(|&n| [scale("ring", n), scale("conv", n)])
        .collect();
    let rs = run(&session, "ablation-scale", &specs, &benches);
    let rows: Vec<_> = ns
        .iter()
        .map(|&n| {
            (
                format!("{n}_clusters"),
                rs.speedup(&name_of(&scale("ring", n)), &name_of(&scale("conv", n))),
            )
        })
        .collect();
    println!(
        "\n{}",
        render_speedups(
            "Ablation 3. Ring-over-Conv speedup vs cluster count (1 bus, 2IW)",
            &rows
        )
    );

    // ---- 4. bus latency scaling ----
    let hoppy = |topology: &str, hop: u32| ConfigSpec {
        topology: Some(topology.to_string()),
        hop_latency: Some(hop),
        ..ConfigSpec::default()
    };
    let hops = [1u32, 2, 3, 4];
    let specs: Vec<ConfigSpec> = hops
        .iter()
        .flat_map(|&h| [hoppy("ring", h), hoppy("conv", h)])
        .collect();
    let rs = run(&session, "ablation-hop", &specs, &benches);
    let rows: Vec<_> = hops
        .iter()
        .map(|&h| {
            (
                format!("{h}_cycles_per_hop"),
                rs.speedup(&name_of(&hoppy("ring", h)), &name_of(&hoppy("conv", h))),
            )
        })
        .collect();
    println!(
        "\n{}",
        render_speedups(
            "Ablation 4. Ring-over-Conv speedup vs hop latency (8c, 1 bus)",
            &rows
        )
    );

    // Also exercise the activity-spread claim from §5.
    let main = session.run(&plans::main()).expect("main plan failed");
    let spread = |runs: &[&rcmc_sim::RunResult]| {
        let mut worst: f64 = 0.0;
        for r in runs {
            let mx = r.dispatch_shares.iter().copied().fold(0.0f64, f64::max);
            worst = worst.max(mx);
        }
        worst
    };
    println!(
        "Activity spread (worst per-cluster dispatch share over the suite):\n  Ring {:.3}  Conv {:.3}  (uniform = 0.125)",
        spread(&main.config("Ring_8clus_1bus_2IW")),
        spread(&main.config("Conv_8clus_1bus_2IW"))
    );
    // Keep the steering-cross decomposition visible in bench output too.
    let decomposition = plans::builtin("steering-decomposition").expect("a builtin plan");
    let cross = session
        .run(&decomposition)
        .expect("decomposition plan failed");
    println!(
        "\n{}",
        decomposition.render_text(&cross).expect("reports render")
    );
}
