//! The paper's evaluation (§4) as builtin plans.
//!
//! Each figure is one [`Plan`]: the configuration grid it needs plus the
//! [`ReportSpec`](crate::plan::ReportSpec)s that render it, titled as the
//! paper words them. A figure's text is its plan's reports joined by a
//! blank line ([`Plan::render_text`]), which is what `rcmc report <name>`
//! prints. [`render_figures`] runs the union grid once and renders every
//! figure from it, after the static tables (Tables 1–3, Figures 3–5 and
//! the workload characterization). The beyond-paper ablations are the
//! `ablations` plan, printed by `rcmc report ablations`.
//!
//! [`Plan`]: crate::plan::Plan
//! [`Plan::render_text`]: crate::plan::Plan::render_text

use crate::runner::{Budget, ProgressFn};
use crate::session::Session;

/// The sweeps behind the paper's figures (and the beyond-paper ablations),
/// as reusable [`Plan`] values. All of them run the full 26-benchmark suite
/// with the env-derived default budget; callers scope them down with
/// [`Plan::benches`] / [`Plan::budget`].
///
/// [`Plan`]: crate::plan::Plan
/// [`Plan::benches`]: crate::plan::Plan::benches
/// [`Plan::budget`]: crate::plan::Plan::budget
pub mod plans {
    use rcmc_core::{Steering, Steering::*, Topology, Topology::*};

    use serde::json::Value;

    use crate::config::{self, make, steering_name, topology_name, ALL_STEERINGS, ALL_TOPOLOGIES};
    use crate::plan::{ConfigSpec, Plan, ReportSpec, SpeedupPair};
    use crate::resultset::Metric::*;

    /// Every builtin plan name: the simulated figures of `rcmc figures` in
    /// paper order ([`FIGURES`]), then the plans folded from or beside them.
    pub const BUILTIN: [&str; 16] = [
        "fig06",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "topology",
        "steering-cross",
        "main",
        "ssa",
        "steering-decomposition",
        "ablations",
        "everything",
    ];

    /// The simulated figures of `rcmc figures`, in paper order.
    pub const FIGURES: &[&str] = BUILTIN.split_at(11).0;

    /// Look a builtin plan up by name (CLI `plan show`/`report`, serve
    /// `"plan": "<name>"`). Each figure's plan runs the grid it needs and
    /// carries its reports, titled as the paper words them.
    pub fn builtin(name: &str) -> Option<Plan> {
        let on = |group: &str, title: &str, report: ReportSpec| {
            Plan::new(name).group(group).report(report.titled(title))
        };
        let t3 = |title: &str, report: ReportSpec| on("table3", title, report);
        Some(match name {
            "main" => main(),
            "fig06" => t3(
                "Figure 6. Speedup of Ring over Conv",
                ReportSpec::speedup_labelled(ring_over_conv("")),
            ),
            "fig07" => t3(
                "Figure 7. Communications per instruction",
                ReportSpec::grouped(CommsPerInsn),
            ),
            "fig08" => t3(
                "Figure 8. Distance per communication",
                ReportSpec::grouped(DistPerComm),
            ),
            "fig09" => t3(
                "Figure 9. Bus contention per communication",
                ReportSpec::grouped(WaitPerComm),
            ),
            "fig10" => t3(
                "Figure 10. Workload imbalance (NREADY)",
                ReportSpec::grouped(Nready),
            ),
            "fig11" => t3(
                "Figure 11. Instruction distribution across clusters",
                ReportSpec::distribution(vec![make(Ring, 8, 2, 1).name]),
            ),
            "fig12" => fig12(),
            "ssa" => union(name, &["fig13", "fig14"]),
            "fig13" => on(
                "ssa",
                "Figure 13. Speedup of Ring+SSA over Conv+SSA",
                ReportSpec::speedup_labelled(ring_over_conv("+SSA")),
            ),
            "fig14" => on(
                "ssa",
                "Figure 14. Workload imbalance (NREADY) with SSA",
                ReportSpec::grouped(Nready),
            ),
            "topology" => topology(),
            "steering-cross" => on(
                "steering-cross",
                "Steering cross. Average IPC by (policy x topology), 8 clusters, 1 bus, 2IW",
                ReportSpec::matrix(
                    Ipc,
                    ALL_STEERINGS.map(|s| steering_name(s).into()).to_vec(),
                    ALL_TOPOLOGIES.map(|t| topology_name(t).into()).to_vec(),
                    ALL_STEERINGS
                        .iter()
                        .flat_map(|&s| ALL_TOPOLOGIES.map(|t| cross((t, s))))
                        .collect(),
                ),
            ),
            "steering-decomposition" => steering_decomposition(),
            "ablations" => ablations(),
            // The union of every configuration grid, derived from
            // `config::groups` so a newly added grid is covered.
            "everything" => config::group_names()
                .into_iter()
                .fold(Plan::new(name), Plan::group),
            _ => return None,
        })
    }

    /// The main Table 3 sweep with the reports of Figures 6–11.
    pub fn main() -> Plan {
        union("main", &FIGURES[..6])
    }

    /// The union of the builtin `figures`: their configuration entries
    /// (first occurrence kept) and all their reports, in order.
    fn union(plan: &str, figures: &[&str]) -> Plan {
        figures.iter().fold(Plan::new(plan), |mut acc, figure| {
            let figure = builtin(figure).expect("a builtin figure");
            for spec in figure.configs {
                if !acc.configs.contains(&spec) {
                    acc.configs.push(spec);
                }
            }
            acc.reports.extend(figure.reports);
            acc
        })
    }

    /// The 8-cluster 1-bus 2IW name of a (topology, steering) pair.
    fn cross((topology, steering): (Topology, Steering)) -> String {
        config::config_name(topology, steering, 8, 2, 1)
    }

    /// The five Ring-over-Conv pairs of Figures 6 and 13 in the paper's
    /// legend order, each labelled by its Ring configuration.
    fn ring_over_conv(suffix: &str) -> Vec<SpeedupPair> {
        [(4, 2, 1), (8, 1, 2), (8, 1, 1), (8, 2, 2), (8, 2, 1)]
            .iter()
            .map(|&(clusters, iw, buses)| {
                let ring = format!("{}{suffix}", make(Ring, clusters, iw, buses).name);
                let conv = format!("{}{suffix}", make(Conv, clusters, iw, buses).name);
                SpeedupPair::labelled(&ring, &ring, conv)
            })
            .collect()
    }

    /// Figure 12 (§4.6): Ring-over-Conv speedups with 1- and 2-cycle hop
    /// buses at 8 clusters, 2IW.
    fn fig12() -> Plan {
        let mut plan = Plan::new("fig12").group("fig12");
        let mut pairs = Vec::new();
        for buses in [2, 1] {
            let (ring, conv) = (make(Ring, 8, 2, buses).name, make(Conv, 8, 2, buses).name);
            for (hop, suffix) in [(1, ""), (2, "_2cyclehop")] {
                pairs.push(SpeedupPair::labelled(
                    format!("{buses}bus_{hop}cyclehop"),
                    format!("{ring}{suffix}"),
                    format!("{conv}{suffix}"),
                ));
            }
            plan = plan.config_named(ring).config_named(conv);
        }
        plan.report(
            ReportSpec::speedup_labelled(pairs)
                .titled("Figure 12. Speedup of Ring over Conv for different bus latencies"),
        )
    }

    /// Beyond-paper: IPC of every interconnect at the 8-cluster 2IW design
    /// point, plus each topology's speedup over the conventional bus with
    /// the same bus/port count.
    fn topology() -> Plan {
        let pairs = [1, 2]
            .iter()
            .flat_map(|&buses| {
                [Ring, Crossbar, Mesh, Hier].map(|t| {
                    let name = make(t, 8, 2, buses).name;
                    SpeedupPair::labelled(&name, &name, make(Conv, 8, 2, buses).name)
                })
            })
            .collect();
        Plan::new("topology")
            .group("topology")
            .report(
                ReportSpec::grouped(Ipc)
                    .titled("Topology ablation. IPC by interconnect (8 clusters, 2IW)"),
            )
            .report(
                ReportSpec::speedup_labelled(pairs)
                    .titled("Speedup over Conv at matched bus/port count"),
            )
    }

    /// Beyond-paper: how much of the ring's win over the conventional
    /// baseline is the *fabric* (Ring+DCOUNT) vs the *policy* (Conv+DEP,
    /// Xbar+DEP), plus how the Hier shared inter-group link behaves under
    /// SSA's unbalanced placement, read through the contention counter.
    fn steering_decomposition() -> Plan {
        let short = |(t, s)| format!("{}+{}", topology_name(t), steering_name(s));
        let pairs = [
            ("total", (Ring, RingDep), (Conv, ConvDcount)),
            ("fabric alone", (Ring, ConvDcount), (Conv, ConvDcount)),
            ("policy alone", (Conv, RingDep), (Conv, ConvDcount)),
            ("policy on ring", (Ring, RingDep), (Ring, ConvDcount)),
            (
                "policy on 1-hop fabric",
                (Crossbar, RingDep),
                (Crossbar, ConvDcount),
            ),
            ("balance-free", (Ring, Ssa), (Conv, Ssa)),
            ("hier under SSA", (Hier, Ssa), (Hier, ConvDcount)),
        ]
        .map(|(what, num, den)| {
            let label = format!("{what}: {} / {}", short(num), short(den));
            SpeedupPair::labelled(label, cross(num), cross(den))
        });
        let contention = [(Hier, ConvDcount), (Hier, Ssa), (Ring, Ssa)].map(cross);
        Plan::new("steering-decomposition")
            .group("steering-cross")
            .report(ReportSpec::speedup_labelled(pairs.to_vec()).titled(
                "Steering-cross decomposition (geomean IPC ratios, 8 clusters, 1 bus, 2IW)",
            ))
            .report(
                ReportSpec::grouped(WaitPerComm)
                    .over(contention.to_vec())
                    .titled("Inter-cluster contention (mean bus-wait cycles per communication)"),
            )
    }

    /// Beyond-paper ablations on a 10-benchmark subset, each grid an
    /// axes/override spec list that resolves to the same tagged names as
    /// `rcmc plan run`:
    ///
    /// 1. steering × topology cross — is the win the ring bypass or the
    ///    dependence steering?
    /// 2. copy-release policy — §3's release-on-read alternative (the
    ///    `copy_release` override) vs release at redefiner commit;
    /// 3. cluster-count scaling — 2/4/8/16 clusters (the paper's
    ///    scalability claim);
    /// 4. bus-latency scaling — 1–4 cycles/hop (generalizes Figure 12);
    ///
    /// plus the per-cluster dispatch shares behind §5's activity-spread
    /// claim.
    fn ablations() -> Plan {
        let on = |topology: &str| ConfigSpec {
            topology: Some(topology.into()),
            ..ConfigSpec::default()
        };
        let name = |spec: &ConfigSpec| {
            spec.resolve()
                .expect("ablation specs resolve")
                .remove(0)
                .name
        };
        let mut plan = Plan::new("ablations").benches([
            "swim", "galgel", "ammp", "equake", "lucas", "mcf", "gcc", "gzip", "twolf", "vpr",
        ]);
        // One speedup report over (label, num, den) rows; each spec joins
        // the grid once (resolution also dedups overlapping names).
        let speedups =
            |mut plan: Plan, title: &str, rows: Vec<(String, ConfigSpec, ConfigSpec)>| {
                let pairs = rows
                    .iter()
                    .map(|(label, num, den)| SpeedupPair::labelled(label, name(num), name(den)))
                    .collect();
                for spec in rows.into_iter().flat_map(|(_, num, den)| [num, den]) {
                    if !plan.configs.contains(&spec) {
                        plan = plan.config(spec);
                    }
                }
                plan.report(ReportSpec::speedup_labelled(pairs).titled(title))
            };

        let base = ConfigSpec {
            steering: Some("dcount".into()),
            ..on("conv")
        };
        let cross = ["ring", "conv"]
            .into_iter()
            .flat_map(|t| {
                ["ringdep", "dcount"].map(|s| ConfigSpec {
                    steering: Some(s.into()),
                    ..on(t)
                })
            })
            .map(|spec| (name(&spec), spec, base.clone()))
            .collect();
        plan = speedups(
            plan,
            "Ablation 1. Steering x topology (vs Conv+DCOUNT)",
            cross,
        );

        let on_read = on("ring").with_override("copy_release", Value::Str("on_read".into()));
        let release = vec![("release_on_read_vs_at_commit".into(), on_read, on("ring"))];
        plan = speedups(
            plan,
            "Ablation 2. Copy release policy (Ring 8c 1bus 2IW)",
            release,
        );

        let clusters = [2, 4, 8, 16]
            .map(|n| {
                let at = |t| ConfigSpec {
                    clusters: Some(n),
                    ..on(t)
                };
                (format!("{n}_clusters"), at("ring"), at("conv"))
            })
            .to_vec();
        plan = speedups(
            plan,
            "Ablation 3. Ring-over-Conv speedup vs cluster count (1 bus, 2IW)",
            clusters,
        );

        let hops = [1, 2, 3, 4]
            .map(|hop| {
                let at = |t| ConfigSpec {
                    hop_latency: Some(hop),
                    ..on(t)
                };
                (format!("{hop}_cycles_per_hop"), at("ring"), at("conv"))
            })
            .to_vec();
        plan = speedups(
            plan,
            "Ablation 4. Ring-over-Conv speedup vs hop latency (8c, 1 bus)",
            hops,
        );

        plan.report(
            ReportSpec::distribution(vec![make(Ring, 8, 2, 1).name, make(Conv, 8, 2, 1).name])
                .titled("Activity spread. Instruction distribution across clusters"),
        )
    }
}

/// The whole evaluation exactly as `rcmc figures` prints it: Table 1 and
/// Figures 3–5 from the layout model, Tables 2–3, the workload
/// characterization, then each of [`plans::FIGURES`]
/// rendered from one run of the `everything` plan, every block opening
/// with a `====` rule. `budget`/`benches` scope the sweep (tests, quick
/// looks); `progress` hears every job of the run.
pub fn render_figures(
    session: &Session,
    budget: Option<Budget>,
    benches: Option<&[&str]>,
    progress: ProgressFn<'_>,
) -> Result<String, String> {
    let mut plan = plans::builtin("everything").expect("a builtin plan");
    if let Some(b) = budget {
        plan = plan.budget(b);
    }
    if let Some(bs) = benches {
        plan = plan.benches(bs.iter().copied());
    }
    let rs = session.run_streaming(&plan, progress)?;
    let mut blocks = vec![
        rcmc_layout::table1_text(),
        rcmc_layout::figure3_text(),
        rcmc_layout::figure4_5_text(),
        crate::config::table2_text(),
        crate::config::table3_text(),
        format!(
            "Workload characterization (30k-instruction windows)\n\
             ----------------------------------------------------\n{}",
            rcmc_workloads::suite_table(30_000)
        ),
    ];
    for figure in plans::FIGURES {
        let plan = plans::builtin(figure).expect("a builtin figure");
        blocks.push(plan.render_text(&rs)?);
    }
    Ok(blocks
        .iter()
        .map(|b| format!("{}\n{b}", "=".repeat(64)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ConfigSpec, Plan};

    fn tiny() -> Budget {
        Budget {
            warmup: 1_000,
            measure: 4_000,
        }
    }

    #[test]
    fn figure6_has_five_pairs() {
        let session = Session::ephemeral().with_jobs(2);
        let plan = plans::builtin("fig06").unwrap();
        // Restrict to a subset of benches for test speed.
        let rs = session
            .run(&plan.clone().benches(["swim", "gzip"]).budget(tiny()))
            .unwrap();
        assert_eq!(plan.reports[0].pairs.len(), 5);
        assert!(plan
            .render_text(&rs)
            .unwrap()
            .contains("Ring_8clus_1bus_2IW"));
        for p in &plan.reports[0].pairs {
            let v = rs.speedup(&p.num, &p.den).avg;
            assert!(v > 0.2 && v < 5.0, "speedup ratio out of range: {v}");
        }
    }

    #[test]
    fn table1_and_layout_render() {
        assert!(rcmc_layout::table1_text().contains("Register file"));
        assert_eq!(rcmc_layout::AreaModel::default().table1().len(), 6);
        for (path, model, _) in rcmc_layout::figure4_5_wires(&Default::default()) {
            assert!(model > 5_000.0 && model < 60_000.0, "{path}: {model}");
            assert!(rcmc_layout::figure4_5_text().contains(path));
        }
    }

    #[test]
    fn figure11_shares_are_flat_for_ring() {
        let session = Session::ephemeral().with_jobs(1);
        let ring = &plans::builtin("fig11").unwrap().reports[0].configs[0];
        let plan = Plan::new("f11")
            .config_named(ring)
            .benches(["ammp", "crafty"])
            .budget(tiny());
        for r in session.run(&plan).unwrap().config(ring) {
            let max = r.dispatch_shares.iter().copied().fold(0.0, f64::max);
            assert!(max < 0.40, "{}: ring max dispatch share {max:.2}", r.bench);
        }
    }

    #[test]
    fn ablations_render_four_speedup_tables_and_the_spread() {
        let session = Session::ephemeral().with_jobs(2);
        let plan = plans::builtin("ablations")
            .unwrap()
            .benches(["swim", "gzip"])
            .budget(tiny());
        let rs = session.run(&plan).unwrap();
        let reports = plan.render_reports(&rs).unwrap();
        let kinds: Vec<&str> = reports.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(
            kinds,
            ["speedup", "speedup", "speedup", "speedup", "distribution"]
        );
        for (report, title) in reports.iter().zip([
            "Ablation 1. Steering x topology (vs Conv+DCOUNT)",
            "Ablation 2. Copy release policy (Ring 8c 1bus 2IW)",
            "Ablation 3. Ring-over-Conv speedup vs cluster count (1 bus, 2IW)",
            "Ablation 4. Ring-over-Conv speedup vs hop latency (8c, 1 bus)",
        ]) {
            assert!(report.text.starts_with(title), "{}", report.text);
        }
        for p in plan.reports.iter().flat_map(|r| &r.pairs) {
            let v = rs.speedup(&p.num, &p.den).avg;
            assert!(
                v > 0.2 && v < 5.0,
                "{}: speedup ratio out of range: {v}",
                p.num
            );
        }
        // The copy-release row runs under the name `ConfigSpec::resolve`
        // tags it with, the label its reports reference.
        let on_read = ConfigSpec::default()
            .with_override("copy_release", serde::json::Value::Str("on_read".into()))
            .resolve()
            .unwrap()
            .remove(0)
            .name;
        assert!(on_read.contains("~copy_release"), "{on_read}");
        assert_eq!(plan.reports[1].pairs[0].num, on_read);
    }

    #[test]
    fn builtin_plans_all_validate() {
        let mut kinds = Vec::new();
        for name in plans::BUILTIN {
            let p = plans::builtin(name).unwrap();
            assert_eq!(p.name, name);
            p.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let back = Plan::from_json(&p.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, p, "{name} must round-trip through JSON");
            kinds.extend(p.reports.into_iter().map(|r| r.kind));
        }
        assert!(plans::builtin("nope").is_none());
        for kind in ["grouped", "speedup", "distribution", "matrix"] {
            assert!(kinds.iter().any(|k| k == kind), "no builtin uses {kind}");
        }
        // `main` and `ssa` fold their figures' grids and reports.
        for (union, figures) in [
            ("main", &plans::FIGURES[..6]),
            ("ssa", &plans::FIGURES[7..9]),
        ] {
            let figures: Vec<Plan> = figures.iter().map(|f| plans::builtin(f).unwrap()).collect();
            let union = plans::builtin(union).unwrap();
            assert_eq!(union.configs, figures[0].configs);
            let reports: Vec<_> = figures.into_iter().flat_map(|f| f.reports).collect();
            assert_eq!(union.reports, reports);
        }
    }
}
