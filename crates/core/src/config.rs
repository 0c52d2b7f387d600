//! Back-end configuration.

use serde::json::Value;

/// The whitelist of [`CoreConfig`] fields a declarative `"overrides"` map
/// (plan specs, machine sweeps) may set by key, in canonical (sorted)
/// order. [`CoreConfig::apply_override`] is the single source of truth for
/// how each key parses; this list exists for error messages, docs and the
/// CLI. Axes that plan specs already own (`topology`, `steering`,
/// `clusters`, `iw`, `buses`, `hop_latency`) are deliberately absent —
/// they shape the configuration *name*, overrides only tag it.
pub const OVERRIDE_KEYS: [&str; 15] = [
    "commit_width",
    "copy_release",
    "dcount_threshold",
    "fetch_queue",
    "fetch_width",
    "frontend_depth",
    "hier_pair_links",
    "iq_comm",
    "iq_fp",
    "iq_int",
    "lsq",
    "regs_fp",
    "regs_int",
    "rob",
    "store_buffer",
];

/// Cluster interconnect topology (the paper's two contenders plus a
/// beyond-paper point-to-point design).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Topology {
    /// §3: results of cluster *i* are written to the register file of cluster
    /// *(i+1) mod N* and wake up consumers there; no intra-cluster bypass.
    /// All buses run forward (the ring direction).
    Ring,
    /// §4.1: conventional clusters with intra-cluster bypass; results stay in
    /// the producing cluster. With two buses one runs forward and one
    /// backward to halve worst-case distances.
    Conv,
    /// Beyond-paper ablation: conventional-style clusters (intra-cluster
    /// bypass, results stay local) joined by a full crossbar — every pair of
    /// clusters is one hop apart, arbitration is per-cluster ingress/egress
    /// ports (`n_buses` of each per cluster) instead of bus segments.
    Crossbar,
    /// Beyond-paper ablation: conventional-style clusters on a 2D mesh —
    /// XY (dimension-ordered) routing over bidirectional neighbor links,
    /// Manhattan-distance delays, `n_buses` ports per directed link. The
    /// grid is the most square factorization of the cluster count (see
    /// [`crate::fabric::mesh_dims`]); prime counts degenerate to a 1×N line.
    Mesh,
    /// Beyond-paper ablation: hierarchical clusters-of-clusters — every
    /// group of [`crate::fabric::hier_group_size`] clusters shares a cheap
    /// single-hop local bus, and all groups share one expensive
    /// [`crate::fabric::HIER_INTER_HOPS`]-hop inter-group link.
    Hier,
}

/// Steering algorithm selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Steering {
    /// §3.1 dependence-based ring steering (free-register balance metric).
    RingDep,
    /// §4.1 DCOUNT-balanced locality steering (Parcerisa et al., PACT'02).
    ConvDcount,
    /// §4.7 simple steering: home cluster of the leftmost operand,
    /// round-robin for operand-less instructions. No balance control.
    Ssa,
}

/// Register-copy release policy (§3 discusses both; the paper evaluates
/// `AtRedefineCommit`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyRelease {
    /// All copies of a value are freed when the instruction that redefines
    /// the architectural register commits (paper default).
    AtRedefineCommit,
    /// Non-home copies are freed as soon as their last dispatched reader has
    /// issued; the home copy still waits for the redefiner's commit
    /// (the paper's proposed alternative, implemented as an ablation).
    OnLastRead,
}

/// Maximum supported cluster count. Hot per-value and per-candidate state
/// is a `u64` bitmask (one bit per cluster), so this ceiling is exactly the
/// word width; truly per-cluster structures are boxed slices sized by
/// `n_clusters` and do not depend on it.
pub const MAX_CLUSTERS: usize = 64;

/// Bitmask with one bit set per cluster (`n` low bits). `n` must be
/// `1..=MAX_CLUSTERS`.
#[inline]
pub fn cluster_mask(n: usize) -> u64 {
    debug_assert!((1..=MAX_CLUSTERS).contains(&n));
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Event-wheel length of the pipeline (future cycles a completion can be
/// scheduled at). Every interconnect grant delay — and every functional
/// unit / memory latency — must land strictly inside it;
/// [`CoreConfig::validate`] enforces the interconnect side. A power of two,
/// so the wheel wraps with a mask.
pub const EVENT_WHEEL: usize = 512;

/// Trace entries a run may read past its instruction budget. Fetch never
/// follows a wrong path, so it stays within the ROB, the fetch queue and
/// one fetch group of the last commit, and commit overshoots the budget by
/// less than one commit group. [`CoreConfig::validate`] rejects
/// configurations whose `rob + fetch_queue + fetch_width + commit_width`
/// exceeds it, so a trace of `budget + RUN_AHEAD` instructions is never
/// read to its end before the budget commits.
pub const RUN_AHEAD: u64 = 16_384;

/// Full back-end configuration. Defaults correspond to the paper's
/// `8clus_1bus_2IW` configuration; `rcmc-sim` provides all Table 3 presets.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Number of clusters (2..=16).
    pub n_clusters: usize,
    /// Integer issue width per cluster (also the number of INT ALUs and of
    /// INT mul/div units).
    pub iw_int: usize,
    /// FP issue width per cluster (also the number of FP ALUs and FP mul/div
    /// units).
    pub iw_fp: usize,
    /// Number of inter-cluster buses.
    pub n_buses: usize,
    /// Bus latency per hop in cycles (fully pipelined).
    pub hop_latency: u32,
    /// Interconnect topology.
    pub topology: Topology,
    /// Steering algorithm.
    pub steering: Steering,
    /// INT issue-queue entries per cluster.
    pub iq_int: usize,
    /// FP issue-queue entries per cluster.
    pub iq_fp: usize,
    /// Communication-queue entries per cluster.
    pub iq_comm: usize,
    /// Physical INT registers per cluster.
    pub regs_int: usize,
    /// Physical FP registers per cluster.
    pub regs_fp: usize,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Load/store-queue entries.
    pub lsq: usize,
    /// Fetch/decode width.
    pub fetch_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Fetch-queue entries.
    pub fetch_queue: usize,
    /// Cycles from fetch to dispatch-eligibility (fetch + decode + rename;
    /// the 1-cycle steering latency of §4.1 is the final stage).
    pub frontend_depth: u32,
    /// Committed-store buffer entries (drain to the D-cache in background).
    pub store_buffer: usize,
    /// DCOUNT imbalance threshold for [`Steering::ConvDcount`]
    /// (difference in dispatched-but-unissued instruction counts).
    pub dcount_threshold: f64,
    /// Copy-release policy.
    pub copy_release: CopyRelease,
    /// [`Topology::Hier`] inter-group wiring: `false` (default) models one
    /// shared link between all groups — the paper-style pessimistic
    /// bottleneck; `true` gives every unordered group pair its own link
    /// pool (`n_buses` slots per pair per cycle), so traffic between
    /// groups 0↔1 no longer blocks 2↔3.
    pub hier_pair_links: bool,
    /// Give up if no instruction commits for this many cycles (deadlock
    /// detector; a model bug, never expected in normal runs).
    pub watchdog_cycles: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            n_clusters: 8,
            iw_int: 2,
            iw_fp: 2,
            n_buses: 1,
            hop_latency: 1,
            topology: Topology::Ring,
            steering: Steering::RingDep,
            iq_int: 16,
            iq_fp: 16,
            iq_comm: 16,
            regs_int: 48,
            regs_fp: 48,
            rob: 256,
            lsq: 128,
            fetch_width: 8,
            commit_width: 8,
            fetch_queue: 64,
            frontend_depth: 3,
            store_buffer: 8,
            // Calibrated by `cargo run -p rcmc-sim --example calibrate_dcount`
            // to maximize the Conv baseline's performance (fair comparison:
            // the paper's DCOUNT steering is tuned).
            dcount_threshold: 16.0,
            copy_release: CopyRelease::AtRedefineCommit,
            hier_pair_links: false,
            watchdog_cycles: 200_000,
        }
    }
}

impl CoreConfig {
    /// The calibrated DCOUNT threshold for a topology (maximizing the
    /// geomean IPC of [`Steering::ConvDcount`] over a representative
    /// benchmark subset at 8 clusters / 1 bus / 2IW; see `rcmc-sim`'s
    /// `calibrate_dcount` example). The bus topologies keep the
    /// paper-baseline value; the point-to-point fabrics tolerate scatter
    /// better (every redirection costs at most one /
    /// [`crate::fabric::HIER_INTER_HOPS`] hops, not a bus walk), so their
    /// calibration runs favor tighter balance control — geomean IPC at the
    /// optimum vs the Conv-calibrated 16.0: Xbar 0.8413 vs 0.8109, Mesh
    /// 0.8088 vs 0.7852, Hier 0.7767 vs 0.7675.
    pub fn default_dcount_threshold(topology: Topology) -> f64 {
        match topology {
            Topology::Ring | Topology::Conv => 16.0,
            Topology::Crossbar => 8.0,
            Topology::Mesh | Topology::Hier => 12.0,
        }
    }

    /// Set one whitelisted field by key from a JSON value — the single
    /// source of truth behind declarative `"overrides"` maps (see
    /// [`OVERRIDE_KEYS`]). Returns the canonical compact rendering of the
    /// applied value (`"256"`, `"12.5"`, `"on_read"`, `"on"`), which
    /// callers embed in configuration names/store keys so an overridden
    /// configuration can never collide with an untouched preset row.
    ///
    /// Unknown keys, wrong JSON types and nonsensical values (zero queue
    /// depths, non-positive thresholds) are hard errors. Range interactions
    /// (e.g. register-file minima) are [`CoreConfig::validate`]'s job —
    /// callers must still validate after applying every override.
    pub fn apply_override(&mut self, key: &str, value: &Value) -> Result<String, String> {
        // A positive integer field: `>= 1` here, any tighter bound later
        // in `validate`.
        fn uint(key: &str, value: &Value) -> Result<usize, String> {
            match value {
                Value::Num(n) if *n >= 1.0 && n.fract() == 0.0 && *n <= 1e9 => Ok(*n as usize),
                _ => Err(format!("override '{key}' must be a positive integer")),
            }
        }
        match key {
            "commit_width" => self.commit_width = uint(key, value)?,
            "copy_release" => {
                self.copy_release = match value {
                    Value::Str(s) => match s.to_ascii_lowercase().as_str() {
                        "at_commit" | "at_redefine_commit" => CopyRelease::AtRedefineCommit,
                        "on_read" | "on_last_read" => CopyRelease::OnLastRead,
                        other => {
                            return Err(format!(
                                "override 'copy_release' must be 'at_commit' or 'on_read', \
                                 not '{other}'"
                            ))
                        }
                    },
                    _ => return Err("override 'copy_release' must be a string".into()),
                };
                return Ok(match self.copy_release {
                    CopyRelease::AtRedefineCommit => "at_commit".to_string(),
                    CopyRelease::OnLastRead => "on_read".to_string(),
                });
            }
            "dcount_threshold" => match value {
                Value::Num(n) if n.is_finite() && *n > 0.0 => self.dcount_threshold = *n,
                _ => return Err("override 'dcount_threshold' must be a positive number".into()),
            },
            "fetch_queue" => self.fetch_queue = uint(key, value)?,
            "fetch_width" => self.fetch_width = uint(key, value)?,
            "frontend_depth" => self.frontend_depth = uint(key, value)? as u32,
            "hier_pair_links" => match value {
                Value::Bool(b) => {
                    self.hier_pair_links = *b;
                    return Ok(if *b { "on" } else { "off" }.to_string());
                }
                _ => return Err("override 'hier_pair_links' must be a boolean".into()),
            },
            "iq_comm" => self.iq_comm = uint(key, value)?,
            "iq_fp" => self.iq_fp = uint(key, value)?,
            "iq_int" => self.iq_int = uint(key, value)?,
            "lsq" => self.lsq = uint(key, value)?,
            "regs_fp" => self.regs_fp = uint(key, value)?,
            "regs_int" => self.regs_int = uint(key, value)?,
            "rob" => self.rob = uint(key, value)?,
            "store_buffer" => self.store_buffer = uint(key, value)?,
            other => {
                return Err(format!(
                    "unknown override key '{other}' (one of: {})",
                    OVERRIDE_KEYS.join(" | ")
                ))
            }
        }
        // Numeric keys fall through here; render compactly (no ".0").
        let Value::Num(n) = value else { unreachable!() };
        Ok(if n.fract() == 0.0 {
            format!("{}", *n as u64)
        } else {
            format!("{n}")
        })
    }

    /// Sanity-check invariants the pipeline relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_clusters < 2 || self.n_clusters > MAX_CLUSTERS {
            return Err(format!("n_clusters must be in 2..={MAX_CLUSTERS}"));
        }
        if self.n_buses == 0 || self.n_buses > 4 {
            return Err("n_buses must be 1..=4".into());
        }
        if self.hop_latency == 0 {
            return Err("hop_latency must be >= 1".into());
        }
        crate::fabric::check(self)?;
        // Physical registers must cover the architectural state plus at least
        // a little rename headroom, or dispatch can starve (see DESIGN.md).
        if self.regs_int < rcmc_isa::NUM_INT_REGS + 8 {
            return Err(format!(
                "regs_int must be >= {} (arch regs + rename headroom)",
                rcmc_isa::NUM_INT_REGS + 8
            ));
        }
        if self.regs_fp < rcmc_isa::NUM_FP_REGS + 8 {
            return Err(format!(
                "regs_fp must be >= {} (arch regs + rename headroom)",
                rcmc_isa::NUM_FP_REGS + 8
            ));
        }
        if self.iw_int == 0 || self.iw_fp == 0 {
            return Err("issue widths must be >= 1".into());
        }
        if self.rob == 0 || self.lsq == 0 || self.fetch_queue == 0 {
            return Err("rob/lsq/fetch_queue must be nonzero".into());
        }
        // Queues reserve their full capacity up front, and the core never
        // reads more than RUN_AHEAD instructions past its last commit, so
        // a larger queue only reserves memory (gigabytes, for an override
        // near its 1e9 limit).
        for (key, cap) in [
            ("iq_int", self.iq_int),
            ("iq_fp", self.iq_fp),
            ("iq_comm", self.iq_comm),
            ("lsq", self.lsq),
            ("store_buffer", self.store_buffer),
        ] {
            if cap as u64 > RUN_AHEAD {
                return Err(format!("{key} = {cap} exceeds RUN_AHEAD ({RUN_AHEAD})"));
            }
        }
        // Like every latency the core schedules, the decode delay must fit
        // the event wheel; a deeper front end would starve commit until the
        // watchdog fires.
        if self.frontend_depth as usize >= EVENT_WHEEL {
            return Err(format!(
                "frontend_depth must be below the {EVENT_WHEEL}-cycle event wheel"
            ));
        }
        self.check_run_ahead()
    }

    /// The [`RUN_AHEAD`] part of [`CoreConfig::validate`]: how far past
    /// its last commit this machine can read its trace must fit the
    /// run-ahead every trace carries.
    pub fn check_run_ahead(&self) -> Result<(), String> {
        let ahead = self.rob + self.fetch_queue + self.fetch_width + self.commit_width;
        if ahead as u64 > RUN_AHEAD {
            return Err(format!(
                "rob + fetch_queue + fetch_width + commit_width = {ahead} exceeds \
                 RUN_AHEAD ({RUN_AHEAD}), the trace read-ahead past the budget"
            ));
        }
        Ok(())
    }

    /// The cluster whose register file receives results produced in
    /// `cluster` (ring: the next cluster; conventional: the same one).
    #[inline]
    pub fn dest_cluster(&self, cluster: usize) -> usize {
        match self.topology {
            Topology::Ring => {
                let next = cluster + 1;
                if next == self.n_clusters {
                    0
                } else {
                    next
                }
            }
            Topology::Conv | Topology::Crossbar | Topology::Mesh | Topology::Hier => cluster,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{hier_group_size, mesh_dims, DistanceLut, Fabric, HIER_INTER_HOPS};

    #[test]
    fn default_validates() {
        assert!(CoreConfig::default().validate().is_ok());
    }

    #[test]
    fn apply_override_sets_whitelisted_fields() {
        let mut c = CoreConfig::default();
        assert_eq!(c.apply_override("rob", &Value::Num(512.0)).unwrap(), "512");
        assert_eq!(c.rob, 512);
        assert_eq!(c.apply_override("lsq", &Value::Num(256.0)).unwrap(), "256");
        assert_eq!(c.lsq, 256);
        assert_eq!(
            c.apply_override("dcount_threshold", &Value::Num(12.5))
                .unwrap(),
            "12.5"
        );
        assert_eq!(c.dcount_threshold, 12.5);
        assert_eq!(
            c.apply_override("dcount_threshold", &Value::Num(20.0))
                .unwrap(),
            "20"
        );
        assert_eq!(
            c.apply_override("copy_release", &Value::Str("on_read".into()))
                .unwrap(),
            "on_read"
        );
        assert_eq!(c.copy_release, CopyRelease::OnLastRead);
        assert_eq!(
            c.apply_override("copy_release", &Value::Str("AT_COMMIT".into()))
                .unwrap(),
            "at_commit"
        );
        assert_eq!(c.copy_release, CopyRelease::AtRedefineCommit);
        assert_eq!(
            c.apply_override("hier_pair_links", &Value::Bool(true))
                .unwrap(),
            "on"
        );
        assert!(c.hier_pair_links);
        assert_eq!(
            c.apply_override("frontend_depth", &Value::Num(6.0))
                .unwrap(),
            "6"
        );
        assert_eq!(c.frontend_depth, 6);
    }

    #[test]
    fn apply_override_rejects_bad_input() {
        let mut c = CoreConfig::default();
        // Unknown keys list the whitelist.
        let err = c.apply_override("robs", &Value::Num(1.0)).unwrap_err();
        assert!(err.contains("unknown override key 'robs'"), "{err}");
        assert!(err.contains("rob"), "{err}");
        // Plan axes are deliberately not overridable.
        assert!(c.apply_override("clusters", &Value::Num(4.0)).is_err());
        assert!(c
            .apply_override("topology", &Value::Str("ring".into()))
            .is_err());
        // Wrong types / nonsensical values.
        assert!(c.apply_override("rob", &Value::Str("256".into())).is_err());
        assert!(c.apply_override("rob", &Value::Num(0.0)).is_err());
        assert!(c.apply_override("rob", &Value::Num(-8.0)).is_err());
        assert!(c.apply_override("rob", &Value::Num(2.5)).is_err());
        assert!(c
            .apply_override("dcount_threshold", &Value::Num(0.0))
            .is_err());
        assert!(c
            .apply_override("dcount_threshold", &Value::Num(f64::NAN))
            .is_err());
        assert!(c
            .apply_override("copy_release", &Value::Str("never".into()))
            .is_err());
        assert!(c
            .apply_override("hier_pair_links", &Value::Num(1.0))
            .is_err());
        // Failed applications leave the config untouched.
        assert_eq!(c.rob, CoreConfig::default().rob);
    }

    #[test]
    fn override_keys_are_sorted_and_exhaustive() {
        let mut sorted = OVERRIDE_KEYS.to_vec();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            OVERRIDE_KEYS.to_vec(),
            "OVERRIDE_KEYS must be sorted"
        );
        // Every listed key applies cleanly with a plausible value.
        for key in OVERRIDE_KEYS {
            let mut c = CoreConfig::default();
            let value = match key {
                "copy_release" => Value::Str("on_read".into()),
                "hier_pair_links" => Value::Bool(true),
                _ => Value::Num(64.0),
            };
            assert!(c.apply_override(key, &value).is_ok(), "key {key}");
        }
    }

    #[test]
    fn ring_dest_is_next() {
        let c = CoreConfig::default();
        assert_eq!(c.dest_cluster(0), 1);
        assert_eq!(c.dest_cluster(7), 0);
        let conv = CoreConfig {
            topology: Topology::Conv,
            ..CoreConfig::default()
        };
        assert_eq!(conv.dest_cluster(3), 3);
    }

    #[test]
    fn ring_distances_forward_only() {
        let c = CoreConfig {
            n_buses: 2,
            ..CoreConfig::default()
        };
        let lut = DistanceLut::new(&c);
        assert_eq!(lut.min_distance(2, 3), 1);
        assert_eq!(lut.min_distance(3, 2), 7);
        // The second bus charges the same 7 hops: it runs forward too.
        let mut f = Fabric::new(&c);
        assert_eq!(f.try_send(3, 2, 0).map(|g| g.distance), Some(7));
        assert_eq!(
            f.try_send(3, 2, 0).map(|g| g.distance),
            Some(7),
            "ring buses all run forward"
        );
    }

    #[test]
    fn conv_two_buses_halve_distance() {
        let c = CoreConfig {
            topology: Topology::Conv,
            n_buses: 2,
            ..CoreConfig::default()
        };
        let lut = DistanceLut::new(&c);
        assert_eq!(lut.min_distance(3, 2), 1);
        assert_eq!(lut.min_distance(0, 4), 4);
        // The backward bus first, then the forward one.
        let mut f = Fabric::new(&c);
        assert_eq!(f.try_send(3, 2, 0).map(|g| g.distance), Some(1));
        assert_eq!(f.try_send(3, 2, 0).map(|g| g.distance), Some(7));
    }

    #[test]
    fn mesh_dims_most_square_factorization() {
        assert_eq!(mesh_dims(4), (2, 2));
        assert_eq!(mesh_dims(8), (4, 2));
        assert_eq!(mesh_dims(16), (4, 4));
        assert_eq!(mesh_dims(6), (3, 2));
        assert_eq!(mesh_dims(12), (4, 3));
        // Primes degenerate to a line.
        assert_eq!(mesh_dims(7), (7, 1));
        assert_eq!(mesh_dims(2), (2, 1));
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let c = CoreConfig {
            topology: Topology::Mesh,
            ..CoreConfig::default()
        };
        // 8 clusters on a 4×2 grid: 0=(0,0), 3=(3,0), 4=(0,1), 7=(3,1).
        let lut = DistanceLut::new(&c);
        assert_eq!(lut.min_distance(0, 7), 4);
        assert_eq!(lut.min_distance(7, 0), 4, "mesh links are bidirectional");
        assert_eq!(lut.min_distance(0, 3), 3);
        assert_eq!(lut.min_distance(0, 4), 1);
        assert_eq!(lut.min_distance(1, 6), 2);
        assert_eq!(lut.min_distance(2, 2), 0);
        // Both lanes charge the same distance (n_buses is bandwidth only).
        let c2 = CoreConfig { n_buses: 2, ..c };
        let mut f = Fabric::new(&c2);
        assert_eq!(f.try_send(0, 7, 0).map(|g| g.distance), Some(4));
        assert_eq!(f.try_send(0, 7, 0).map(|g| g.distance), Some(4));
        // Results stay local: conventional-style destination.
        assert_eq!(c2.dest_cluster(5), 5);
    }

    #[test]
    fn hier_distance_is_two_level() {
        let c = CoreConfig {
            topology: Topology::Hier,
            ..CoreConfig::default()
        };
        // 8 clusters -> 2 groups of 4.
        assert_eq!(hier_group_size(8), 4);
        let lut = DistanceLut::new(&c);
        assert_eq!(lut.min_distance(0, 3), 1, "intra-group is one hop");
        assert_eq!(lut.min_distance(3, 4), HIER_INTER_HOPS);
        assert_eq!(lut.min_distance(1, 7), HIER_INTER_HOPS);
        assert_eq!(lut.min_distance(2, 2), 0);
        assert_eq!(c.dest_cluster(5), 5);
        // 6 clusters -> groups of 2; 2 clusters -> one flat group.
        assert_eq!(hier_group_size(6), 2);
        assert_eq!(hier_group_size(2), 2);
        assert_eq!(hier_group_size(5), 5);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = CoreConfig {
            n_clusters: 1,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CoreConfig {
            regs_int: 32,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CoreConfig {
            n_buses: 0,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CoreConfig {
            hop_latency: 0,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn queue_and_front_end_bounds_are_inclusive() {
        let d = CoreConfig::default();
        let at_bound = CoreConfig {
            iq_int: RUN_AHEAD as usize,
            frontend_depth: EVENT_WHEEL as u32 - 1,
            ..d.clone()
        };
        assert!(at_bound.validate().is_ok());
        let queue = CoreConfig {
            iq_int: RUN_AHEAD as usize + 1,
            ..d.clone()
        };
        assert!(queue.validate().unwrap_err().contains("iq_int"));
        let deep = CoreConfig {
            frontend_depth: EVENT_WHEEL as u32,
            ..d
        };
        assert!(deep.validate().unwrap_err().contains("frontend_depth"));
    }

    #[test]
    fn run_ahead_bound_rejected() {
        let d = CoreConfig::default();
        let room = RUN_AHEAD as usize - (d.fetch_queue + d.fetch_width + d.commit_width);
        let at_bound = CoreConfig { rob: room, ..d };
        assert!(at_bound.validate().is_ok());
        let over = CoreConfig {
            rob: room + 1,
            ..CoreConfig::default()
        };
        assert!(over.validate().unwrap_err().contains("RUN_AHEAD"));
    }

    #[test]
    fn reservation_window_overflows_rejected() {
        // Hop `j` of a route books offset `j × hop_latency` of the 128-cycle
        // window, so the bound is on the longest route's last hop.
        let check = |topology, n_clusters, hop_latency| {
            CoreConfig {
                topology,
                n_clusters,
                hop_latency,
                ..CoreConfig::default()
            }
            .validate()
            .is_ok()
        };
        // Ring and Conv: the longest bus path at 32 clusters is 31 hops, its
        // last at 30 × 4 = 120 (fits) or 30 × 5 = 150 (does not).
        for topology in [Topology::Ring, Topology::Conv] {
            assert!(check(topology, 32, 4), "{topology:?}");
            assert!(!check(topology, 32, 5), "{topology:?}");
        }
        // ... and runs: its longest path, 1 → 0 on the forward bus, books
        // its last segment at offset 120 and is delivered 124 cycles later.
        let c = CoreConfig {
            n_clusters: 32,
            hop_latency: 4,
            ..CoreConfig::default()
        };
        let grant = crate::fabric::Fabric::new(&c).try_send(1, 0, 0);
        assert_eq!(
            grant,
            Some(crate::fabric::Grant {
                delay: 124,
                distance: 31
            })
        );
        // Mesh: a prime count degenerates to a line, so 13 clusters route
        // up to 12 hops (last at 11 × 11 = 121; 11 × 12 = 132 overflows); a
        // 4×4 grid's diameter is 6 (last at 5 × 25 = 125; 5 × 26 = 130).
        assert!(check(Topology::Mesh, 13, 11));
        assert!(!check(Topology::Mesh, 13, 12));
        assert!(check(Topology::Mesh, 16, 25));
        assert!(!check(Topology::Mesh, 16, 26));
        // Entry-cycle fabrics book offset 0 only, but their grant delays
        // must still fit the event wheel: Hier's worst delay is
        // hop_latency × HIER_INTER_HOPS.
        for topology in [Topology::Crossbar, Topology::Hier] {
            let c = CoreConfig {
                topology,
                hop_latency: 100,
                ..CoreConfig::default()
            };
            assert!(c.validate().is_ok());
        }
        assert!(check(Topology::Hier, 8, 127)); // 127 × 4 = 508 < wheel
        assert!(!check(Topology::Hier, 8, 128)); // 128 × 4 = 512 ≥ wheel
        assert!(check(Topology::Crossbar, 8, 511));
        assert!(!check(Topology::Crossbar, 8, 512));
    }

    #[test]
    fn sixty_four_cluster_bounds() {
        // The ceiling itself.
        assert_eq!(MAX_CLUSTERS, 64);
        let c = CoreConfig {
            n_clusters: 65,
            ..CoreConfig::default()
        };
        assert!(c.validate().is_err());
        assert_eq!(cluster_mask(64), u64::MAX);
        assert_eq!(cluster_mask(4), 0b1111);

        // 64 clusters factor to an 8×8 grid (diameter 14) and 16 hier
        // groups of 4.
        assert_eq!(mesh_dims(64), (8, 8));
        assert_eq!(hier_group_size(64), 4);
        let hier = CoreConfig {
            topology: Topology::Hier,
            n_clusters: 64,
            ..CoreConfig::default()
        };
        assert_eq!(DistanceLut::new(&hier).min_distance(60, 63), 1);

        // A 64-cluster ring's longest path is 63 hops, the last at
        // 62 × 2 = 124 < 128 slots; 3 cycles/hop overflows (186).
        for (hop, ok) in [(2, true), (3, false)] {
            let c = CoreConfig {
                n_clusters: 64,
                hop_latency: hop,
                ..CoreConfig::default()
            };
            assert_eq!(c.validate().is_ok(), ok, "ring 64 clusters hop {hop}");
        }
        // The 8×8 mesh (diameter 14) books its last hop at 13 × 9 = 117
        // and overflows at 10 cycles/hop (130 ≥ 128).
        for (hop, ok) in [(9, true), (10, false)] {
            let c = CoreConfig {
                topology: Topology::Mesh,
                n_clusters: 64,
                hop_latency: hop,
                ..CoreConfig::default()
            };
            assert_eq!(c.validate().is_ok(), ok, "mesh 64 clusters hop {hop}");
        }
        // Entry-cycle fabrics are window-free at 64 clusters.
        for topology in [Topology::Crossbar, Topology::Hier] {
            let c = CoreConfig {
                topology,
                n_clusters: 64,
                ..CoreConfig::default()
            };
            assert!(c.validate().is_ok(), "{topology:?} 64 clusters");
        }
    }

    #[test]
    fn distance_lut_matches_min_distance() {
        for topology in [
            Topology::Ring,
            Topology::Conv,
            Topology::Crossbar,
            Topology::Mesh,
            Topology::Hier,
        ] {
            for n_buses in [1, 2] {
                let c = CoreConfig {
                    topology,
                    n_buses,
                    n_clusters: 12,
                    ..CoreConfig::default()
                };
                // The table holds what an idle fabric charges.
                let lut = DistanceLut::new(&c);
                for from in 0..c.n_clusters {
                    assert_eq!(lut.min_distance(from, from), 0);
                    for to in (0..c.n_clusters).filter(|&to| to != from) {
                        let grant = Fabric::new(&c).try_send(from, to, 0).unwrap();
                        assert_eq!(
                            lut.min_distance(from, to),
                            grant.distance,
                            "{topology:?} {n_buses} buses {from}->{to}"
                        );
                    }
                }
            }
        }
    }
}
