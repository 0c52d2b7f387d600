//! Machine-registry contracts at integration scale.
//!
//! Three guarantees the registry subsystem stands on:
//!
//! 1. **Every family validates everywhere** — each registry row builds a
//!    `CoreConfig::validate`-clean configuration on every topology at both
//!    8 and 64 clusters (watchdog sizing, register-file minima,
//!    reservation-window interactions included).
//! 2. **`paper2005` is bit-identical to the presets** — same name, same
//!    store key, same counters, so a machine-tagged plan never invalidates
//!    the memoized result store.
//! 3. **Store rows are keyed by content, not by name** — an override that
//!    changes the machine never reads the preset's row, and one that
//!    restates a default shares it under its own label.

use rcmc_core::Topology;
use rcmc_sim::config::{make, topology_name, ALL_TOPOLOGIES};
use rcmc_sim::machines::{self, REGISTRY};
use rcmc_sim::plan::{ConfigSpec, Plan};
use rcmc_sim::runner::{run_pair, store_name, Budget, ResultStore, Workload};
use rcmc_sim::Session;
use serde::json::Value;

fn tiny_budget() -> Budget {
    Budget {
        warmup: 300,
        measure: 1_500,
    }
}

/// Contract 1: family × topology × {8, 64} clusters all validate. 64
/// clusters is the ceiling where window/hop interactions bite; the ring
/// only fits the reservation window at 1 cycle/hop, which all families
/// keep.
#[test]
fn every_family_validates_on_every_topology_at_scale() {
    for m in &REGISTRY {
        for topology in ALL_TOPOLOGIES {
            for clusters in [8usize, 64] {
                let spec = ConfigSpec {
                    machine: Some(m.name.to_string()),
                    topology: Some(topology_name(topology).to_ascii_lowercase()),
                    clusters: Some(clusters),
                    ..ConfigSpec::default()
                };
                let cfgs = spec
                    .resolve()
                    .unwrap_or_else(|e| panic!("{} x {topology:?} x {clusters}clus: {e}", m.name));
                assert_eq!(cfgs.len(), 1);
                assert!(
                    cfgs[0].core.validate().is_ok(),
                    "{} x {topology:?} x {clusters}clus invalid",
                    m.name
                );
            }
        }
    }
}

/// Contract 2: a `paper2005` spec with no overrides resolves byte-identical
/// (name, store key, simulated counters) to the preset it shadows.
#[test]
fn paper2005_is_bit_identical_to_presets() {
    let preset = make(Topology::Ring, 8, 2, 1);
    let via_machine = ConfigSpec::for_machine("paper2005")
        .resolve()
        .unwrap()
        .remove(0);
    assert_eq!(via_machine.name, preset.name);
    assert_eq!(store_name(&via_machine), store_name(&preset));
    assert_eq!(
        format!("{:?}", via_machine.core),
        format!("{:?}", preset.core)
    );
    // Same counters, not just same config: run both through the simulator.
    let store = ResultStore::ephemeral();
    let budget = tiny_budget();
    let mcf = Workload::resolve("mcf", None).unwrap();
    let a = run_pair(&preset, &mcf, &budget, &store).unwrap();
    let b = run_pair(&via_machine, &mcf, &budget, &ResultStore::ephemeral()).unwrap();
    assert_eq!(
        a, b,
        "paper2005 must simulate bit-identically to the preset"
    );
}

/// Contract 3: rows are filed under the configuration's content. A
/// poisoned preset row never satisfies an override that changes the
/// machine, whose result lands under its own key; an override restating
/// the default (`rob` 256) is the preset under another label and reads
/// the preset's row, relabelled.
#[test]
fn overridden_configs_never_read_preset_rows() {
    let dir = std::env::temp_dir().join(format!("rcmc-machines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::at(dir.clone());
    let budget = tiny_budget();

    let preset = make(Topology::Ring, 8, 2, 1);
    let with_rob = |rob| {
        ConfigSpec::default()
            .with_override("rob", Value::Num(rob))
            .resolve()
            .unwrap()
            .remove(0)
    };
    let (changed, restated) = (with_rob(32.0), with_rob(256.0));
    assert_eq!(changed.name, "Ring_8clus_1bus_2IW~rob32");
    assert_eq!(restated.name, "Ring_8clus_1bus_2IW~rob256");
    assert_ne!(store_name(&changed), store_name(&preset));
    assert_eq!(store_name(&restated), store_name(&preset));

    let gzip = Workload::resolve("gzip", None).unwrap();
    // Poison the preset's row.
    let mut stale = run_pair(&preset, &gzip, &budget, &ResultStore::ephemeral()).unwrap();
    stale.ipc = 999.0;
    assert!(store.save(&store_name(&preset), "gzip", &budget, &stale));

    let fresh = run_pair(&changed, &gzip, &budget, &ResultStore::ephemeral()).unwrap();
    let got = run_pair(&changed, &gzip, &budget, &store).unwrap();
    assert_eq!(got, fresh, "an overridden machine read the preset's row");
    assert_eq!(
        store.load(&store_name(&changed), "gzip", &budget).as_ref(),
        Some(&fresh),
        "the overridden machine's row lands under its own key"
    );
    // The same machine under another label is the same row.
    let shared = run_pair(&restated, &gzip, &budget, &store).unwrap();
    assert_eq!(
        (shared.config.as_str(), shared.ipc),
        (restated.name.as_str(), 999.0)
    );
    assert_eq!(
        store
            .load(&store_name(&preset), "gzip", &budget)
            .map(|r| r.ipc),
        Some(999.0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A (machine × topology × override-grid) cross runs end-to-end through a
/// `Session` from plan values alone, with distinct result rows per cell.
#[test]
fn machine_cross_runs_through_a_session() {
    let mut plan = Plan::new("machine-cross")
        .benches(["swim"])
        .budget(tiny_budget());
    for machine in ["paper2005", "narrow"] {
        for topology in ["ring", "conv"] {
            for rob in [64.0, 128.0] {
                plan = plan.config(
                    ConfigSpec {
                        machine: Some(machine.into()),
                        topology: Some(topology.into()),
                        ..ConfigSpec::default()
                    }
                    .with_override("rob", Value::Num(rob)),
                );
            }
        }
    }
    let (configs, benches) = plan.resolve().unwrap();
    assert_eq!(configs.len(), 8, "2 machines x 2 topologies x 2 rob values");
    assert_eq!(benches, vec!["swim"]);
    // narrow rows carry the machine tag, paper2005 rows only the override
    // tag.
    assert!(configs
        .iter()
        .any(|c| c.name == "Ring_8clus_1bus_2IW~rob64"));
    assert!(configs
        .iter()
        .any(|c| c.name == "Conv_2clus_1bus_1IW~m:narrow~rob128"));

    let session = Session::ephemeral().with_jobs(2);
    let rs = session.run(&plan).unwrap();
    for c in &configs {
        let rows = rs.config(&c.name);
        assert_eq!(rows.len(), 1, "{}: expected one row", c.name);
    }
}

/// The registry's display surfaces stay in sync with the table.
#[test]
fn registry_renders_and_finds_every_family() {
    let table = machines::render_table();
    for m in &REGISTRY {
        assert!(table.contains(m.name), "{} missing from arch table", m.name);
        let found = machines::find(m.name).unwrap();
        assert_eq!(found.name, m.name);
    }
    assert_eq!(machines::names().len(), REGISTRY.len());
}
