//! # Machine registry — named families of simulated machines
//!
//! The paper evaluates one fixed 2005-era design point; this module models
//! whole *families* of machines as one declarative table, uiCA-style: each
//! [`Machine`] row is a plain value — default plan axes
//! (`clusters`/`iw`/`buses`), a list of [`rcmc_core::config::OVERRIDE_KEYS`]
//! entries and an optional main-memory latency — that
//! `plan::ConfigSpec::resolve` applies on top of the paper's Table 2
//! sizing after topology/steering pairing, through the same
//! `CoreConfig::apply_override` a plan's `"overrides"` map uses. Plan
//! `ConfigSpec`s select a family with `"machine": "wide"`, the CLI with
//! `--machine wide`, and `rcmc machines list|show` renders the table.
//!
//! Contracts:
//!
//! * **`paper2005` is the identity.** Selecting it (or no machine at all)
//!   resolves byte-identical configurations, names and store keys to the
//!   presets — [`Machine::is_baseline`] guards the no-tag path.
//! * **Every other family tags the name** with `~m:<family>` (see
//!   `plan::ConfigSpec::resolve`), a display label: its rows are kept
//!   apart from preset rows by what the family changes, because the
//!   result store keys rows by content (`runner::store_name`).
//! * **Families must validate everywhere.** Each row is checked against
//!   every topology at both 8 and 64 clusters by the registry tests;
//!   an entry that breaks `CoreConfig::validate` is a bug in the table.
//!
//! Fine-grained knobs (one queue depth, a policy flag) don't need a family:
//! plan specs compose any registry row with an `"overrides": {...}` map of
//! the same whitelisted keys, which (unlike a family's entries) tag the
//! name one by one.

/// One named machine family: default plan axes plus the `CoreConfig`
/// fields it resizes and the memory latency it sets. A key it leaves out
/// (or `mem_latency: None`) inherits the paper sizing (rendered `-` in the
/// arch table).
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    /// Registry key (`--machine <name>`, `"machine": "<name>"`).
    pub name: &'static str,
    /// One-line description for `rcmc machines list`.
    pub description: &'static str,
    /// Default cluster count when the spec doesn't pin `clusters`.
    pub clusters: usize,
    /// Default per-cluster issue width when the spec doesn't pin `iw`.
    pub iw: usize,
    /// Default bus/port count when the spec doesn't pin `buses`.
    pub buses: usize,
    /// `CoreConfig` fields by [`rcmc_core::config::OVERRIDE_KEYS`] key, applied in
    /// order through `CoreConfig::apply_override`.
    pub overrides: &'static [(&'static str, f64)],
    /// Main-memory latency in cycles (a `MemConfig` field; the `slowmem`
    /// knob).
    pub mem_latency: Option<u32>,
}

/// The core fields `rcmc machines show` lists, in display order.
const SHOWN: [&str; 12] = [
    "rob",
    "lsq",
    "iq_int",
    "iq_fp",
    "iq_comm",
    "regs_int",
    "regs_fp",
    "fetch_width",
    "commit_width",
    "fetch_queue",
    "frontend_depth",
    "store_buffer",
];

/// The identity row every family starts from.
const BASELINE: Machine = Machine {
    name: "paper2005",
    description: "faithful IPDPS'05 baseline (Table 2 sizing, identity delta)",
    clusters: 8,
    iw: 2,
    buses: 1,
    overrides: &[],
    mem_latency: None,
};

/// The machine-family table, in display order. Add a row here and it is a
/// plan axis, a CLI flag value and an arch-table line everywhere at once.
pub const REGISTRY: [Machine; 4] = [
    BASELINE,
    Machine {
        name: "wide",
        description: "modern 6-wide core: big ROB/IQ/LSQ, deep front end",
        clusters: 8,
        iw: 6,
        buses: 2,
        overrides: &[
            ("rob", 512.0),
            ("lsq", 256.0),
            ("iq_int", 64.0),
            ("iq_fp", 64.0),
            ("iq_comm", 32.0),
            ("regs_int", 192.0),
            ("regs_fp", 192.0),
            ("fetch_width", 16.0),
            ("commit_width", 16.0),
            ("fetch_queue", 128.0),
            ("frontend_depth", 6.0),
            ("store_buffer", 32.0),
        ],
        ..BASELINE
    },
    Machine {
        name: "narrow",
        description: "embedded 1-wide core: shallow queues, tiny windows",
        clusters: 2,
        iw: 1,
        buses: 1,
        overrides: &[
            ("rob", 32.0),
            ("lsq", 16.0),
            ("iq_int", 8.0),
            ("iq_fp", 8.0),
            ("iq_comm", 8.0),
            ("regs_int", 40.0),
            ("regs_fp", 40.0),
            ("fetch_width", 2.0),
            ("commit_width", 2.0),
            ("fetch_queue", 8.0),
            ("frontend_depth", 2.0),
            ("store_buffer", 4.0),
        ],
        ..BASELINE
    },
    Machine {
        name: "slowmem",
        description: "paper core behind 4x slower main memory (400-cycle miss)",
        mem_latency: Some(400),
        ..BASELINE
    },
];

/// Look a family up by name (case-insensitive).
pub fn find(name: &str) -> Option<&'static Machine> {
    REGISTRY.iter().find(|m| m.name.eq_ignore_ascii_case(name))
}

/// The registered family names, in display order — for error messages.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|m| m.name).collect()
}

impl Machine {
    /// Whether this row is the identity delta (`paper2005`): baseline
    /// machines leave configurations byte-identical and carry no name tag.
    pub fn is_baseline(&self) -> bool {
        self.name == BASELINE.name
    }

    /// The value this family sets for one override key, if any.
    fn entry(&self, key: &str) -> Option<f64> {
        self.overrides
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// Multi-line detail view for `rcmc machines show <family>`.
    pub fn show(&self) -> String {
        fn row<T: std::fmt::Display>(label: &str, v: Option<T>) -> String {
            match v {
                Some(v) => format!("  {label:<16} {v}\n"),
                None => format!("  {label:<16} - (paper sizing)\n"),
            }
        }
        let mut s = format!(
            "{} — {}\n  default axes:    {} clusters x {}IW x {} bus\n",
            self.name, self.description, self.clusters, self.iw, self.buses
        );
        for key in SHOWN {
            s.push_str(&row(key, self.entry(key)));
        }
        s.push_str(&row("mem_latency", self.mem_latency));
        s
    }
}

/// Render the registry as a uiCA-style arch table (`rcmc machines list`,
/// `rcmc plan list`). `-` means "inherit the paper sizing".
pub fn render_table() -> String {
    fn cell<T: std::fmt::Display>(v: Option<T>) -> String {
        v.map_or_else(|| "-".to_string(), |v| v.to_string())
    }
    let mut s = String::from(
        "machine    clusxIWxbus  rob  lsq  iq   regs  fetch  fq   depth  memlat  description\n\
         ---------  -----------  ---  ---  ---  ----  -----  ---  -----  ------  -----------\n",
    );
    for m in &REGISTRY {
        let [rob, lsq, iq, regs, fetch, fq, depth] = [
            "rob",
            "lsq",
            "iq_int",
            "regs_int",
            "fetch_width",
            "fetch_queue",
            "frontend_depth",
        ]
        .map(|key| cell(m.entry(key)));
        s.push_str(&format!(
            "{:<9}  {:>4}x{}x{}     {rob:>4} {lsq:>4} {iq:>4} {regs:>5} {fetch:>6} {fq:>4} \
             {depth:>6} {:>7}  {}\n",
            m.name,
            m.clusters,
            m.iw,
            m.buses,
            cell(m.mem_latency),
            m.description,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::make;
    use crate::plan::ConfigSpec;
    use rcmc_core::Topology;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
        assert!(find("paper2005").unwrap().is_baseline());
        assert!(!find("WIDE").unwrap().is_baseline());
        assert!(find("nope").is_none());
    }

    #[test]
    fn baseline_apply_is_the_identity() {
        let base = make(Topology::Ring, 8, 2, 1);
        let paper = find("paper2005").unwrap();
        assert!(paper.overrides.is_empty());
        assert_eq!(paper.mem_latency, None);
        let applied = ConfigSpec::for_machine("paper2005").resolve().unwrap();
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].name, base.name);
        assert_eq!(format!("{:?}", applied[0].core), format!("{:?}", base.core));
        assert_eq!(applied[0].mem.mem_latency, base.mem.mem_latency);
    }

    #[test]
    fn table_and_show_render_every_family() {
        let t = render_table();
        for m in &REGISTRY {
            assert!(t.contains(m.name), "{} missing from table", m.name);
            let s = m.show();
            assert!(s.contains(m.description));
            for (key, _) in m.overrides {
                assert!(SHOWN.contains(key), "{}: {key} not shown", m.name);
            }
        }
        // The identity row renders all-dashes for its delta columns.
        assert!(find("paper2005")
            .unwrap()
            .show()
            .contains("- (paper sizing)"));
    }
}
