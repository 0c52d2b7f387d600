//! Configuration presets: Table 2 (fixed processor parameters) and the
//! named configuration grids — Table 3's ten evaluated cluster/bus/width
//! combinations, §4.6's 2-cycle-hop rows, §4.7's `+SSA` rows and the
//! topology and steering-cross ablations.
//!
//! A grid is data: a list of axes-form [`ConfigSpec`] entries in
//! [`groups`], resolved by [`ConfigSpec::resolve`] like any plan entry.
//! [`make_pair`] builds the Table 2 sizing for one shape; the resolver
//! adds the hop-latency, machine-family and override name tags.

use std::sync::OnceLock;

use rcmc_core::{CoreConfig, Steering, Topology};
use rcmc_uarch::{MemConfig, PredictorConfig};

use crate::plan::ConfigSpec;

/// A named, complete simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Table 3 style name, e.g. `Ring_8clus_1bus_2IW`.
    pub name: String,
    /// Back-end configuration.
    pub core: CoreConfig,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Branch predictor configuration.
    pub pred: PredictorConfig,
}

/// Every supported interconnect topology, in display order.
pub const ALL_TOPOLOGIES: [Topology; 5] = [
    Topology::Ring,
    Topology::Conv,
    Topology::Crossbar,
    Topology::Mesh,
    Topology::Hier,
];

/// Every steering policy, in display order.
pub const ALL_STEERINGS: [Steering; 3] = [Steering::RingDep, Steering::ConvDcount, Steering::Ssa];

/// The steering policy a topology is paired with by default: dependence
/// steering for the ring (whose writeback pattern it exploits), the
/// baseline's DCOUNT-balanced steering for every conventional-style design
/// (results stay local). Any other pairing is selectable explicitly — the
/// two axes are orthogonal.
pub fn default_steering(topology: Topology) -> Steering {
    match topology {
        Topology::Ring => Steering::RingDep,
        Topology::Conv | Topology::Crossbar | Topology::Mesh | Topology::Hier => {
            Steering::ConvDcount
        }
    }
}

/// Build one Table 3 style configuration with the topology's default
/// steering.
///
/// Per Table 2: 4-cluster configurations use 32-entry INT/FP issue queues
/// and 64+64 registers per cluster; 8-cluster ones use 16-entry queues and
/// 48+48 registers.
pub fn make(topology: Topology, n_clusters: usize, iw: usize, n_buses: usize) -> SimConfig {
    make_pair(
        topology,
        default_steering(topology),
        n_clusters,
        iw,
        n_buses,
    )
}

/// Build a configuration for an arbitrary (topology, steering) pair — the
/// orthogonal cross the steering-policy layer exists for. Non-default
/// pairings get a steering suffix in the name (e.g.
/// `Xbar_8clus_1bus_2IW+DEP`).
pub fn make_pair(
    topology: Topology,
    steering: Steering,
    n_clusters: usize,
    iw: usize,
    n_buses: usize,
) -> SimConfig {
    let (iq, regs) = if n_clusters >= 8 { (16, 48) } else { (32, 64) };
    let core = CoreConfig {
        n_clusters,
        iw_int: iw,
        iw_fp: iw,
        n_buses,
        topology,
        steering,
        iq_int: iq,
        iq_fp: iq,
        iq_comm: 16,
        regs_int: regs,
        regs_fp: regs,
        // Only DCOUNT steering reads the threshold; RingDep/Ssa configs
        // keep the plain default, so a per-topology recalibration leaves
        // their content identity (`runner::store_name`) and memoized rows
        // untouched.
        dcount_threshold: if steering == Steering::ConvDcount {
            CoreConfig::default_dcount_threshold(topology)
        } else {
            CoreConfig::default().dcount_threshold
        },
        ..CoreConfig::default()
    };
    SimConfig {
        name: config_name(topology, steering, n_clusters, iw, n_buses),
        core,
        mem: MemConfig::default(),
        pred: PredictorConfig::default(),
    }
}

/// The paper's naming convention (Table 3), extended with a steering
/// suffix whenever the pairing is not the topology's default
/// ([`steering_suffix`]); §4.7's `+SSA` names are unchanged.
pub fn config_name(
    topology: Topology,
    steering: Steering,
    n_clusters: usize,
    iw: usize,
    n_buses: usize,
) -> String {
    let t = topology_name(topology);
    let suffix = steering_suffix(topology, steering);
    format!("{t}_{n_clusters}clus_{n_buses}bus_{iw}IW{suffix}")
}

/// Short topology label used in configuration names.
pub fn topology_name(topology: Topology) -> &'static str {
    match topology {
        Topology::Ring => "Ring",
        Topology::Conv => "Conv",
        Topology::Crossbar => "Xbar",
        Topology::Mesh => "Mesh",
        Topology::Hier => "Hier",
    }
}

/// Short steering label used in configuration-name suffixes and matrices.
pub fn steering_name(steering: Steering) -> &'static str {
    match steering {
        Steering::RingDep => "DEP",
        Steering::ConvDcount => "DCOUNT",
        Steering::Ssa => "SSA",
    }
}

/// The name suffix a (topology, steering) pair carries: empty for the
/// topology's default pairing, `+DEP`/`+DCOUNT`/`+SSA` otherwise.
pub fn steering_suffix(topology: Topology, steering: Steering) -> String {
    if steering == default_steering(topology) {
        String::new()
    } else {
        format!("+{}", steering_name(steering))
    }
}

/// Parse a CLI topology spelling
/// (`--topology ring|conv|bus|crossbar|xbar|mesh|hier`).
pub fn parse_topology(s: &str) -> Option<Topology> {
    match s.to_ascii_lowercase().as_str() {
        "ring" => Some(Topology::Ring),
        "conv" | "bus" | "conventional" => Some(Topology::Conv),
        "crossbar" | "xbar" => Some(Topology::Crossbar),
        "mesh" | "mesh2d" => Some(Topology::Mesh),
        "hier" | "hierarchical" => Some(Topology::Hier),
        _ => None,
    }
}

/// Parse a CLI steering spelling (`--steering ringdep|dcount|ssa`).
pub fn parse_steering(s: &str) -> Option<Steering> {
    match s.to_ascii_lowercase().as_str() {
        "ringdep" | "dep" | "ring-dep" => Some(Steering::RingDep),
        "dcount" | "convdcount" | "conv-dcount" => Some(Steering::ConvDcount),
        "ssa" => Some(Steering::Ssa),
        _ => None,
    }
}

/// Every (topology × shape × steering) axes entry, in that nesting order,
/// where a shape is `(clusters, iw, buses)` and a `None` steering is the
/// topology's default.
fn product(
    topologies: &[Topology],
    shapes: &[(usize, usize, usize)],
    steerings: &[Option<Steering>],
    hop: Option<u32>,
) -> Vec<ConfigSpec> {
    let mut v = Vec::new();
    for &t in topologies {
        for &(c, w, b) in shapes {
            for &s in steerings {
                v.push(ConfigSpec::axes(Some(t), s, Some(c), Some(w), Some(b), hop));
            }
        }
    }
    v
}

/// The configuration grids: each canonical group name (plan-spec
/// `"group"` entries) with its axes-form [`ConfigSpec`] entries, in row
/// order — Table 3, its 8-cluster 2IW rows with 2-cycle hops (§4.6), its
/// rows with the simple steering algorithm (§4.7), every interconnect at
/// 8 clusters 2IW, and every (topology × steering) pair at 8 clusters,
/// 1 bus, 2IW. The grids overlap on purpose, so shared rows memoize once.
/// Group expansion, [`known_configs`] and the `everything` builtin plan
/// all read this one table.
pub fn groups() -> &'static [(&'static str, Vec<ConfigSpec>)] {
    use {Steering::Ssa, Topology::*};
    static TABLE: OnceLock<Vec<(&str, Vec<ConfigSpec>)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Shapes are (clusters, iw, buses); `own` is each topology's
        // default steering, `every` all three policies.
        let table3 = [(4, 2, 1), (8, 1, 1), (8, 1, 2), (8, 2, 1), (8, 2, 2)];
        let two_wide = [(8, 2, 1), (8, 2, 2)];
        let (all, own, every) = (ALL_TOPOLOGIES, [None], ALL_STEERINGS.map(Some));
        vec![
            ("table3", product(&[Conv, Ring], &table3, &own, None)),
            ("fig12", product(&[Ring, Conv], &two_wide, &own, Some(2))),
            ("ssa", product(&[Conv, Ring], &table3, &[Some(Ssa)], None)),
            ("topology", product(&all, &two_wide, &own, None)),
            ("steering-cross", product(&all, &[(8, 2, 1)], &every, None)),
        ]
    })
}

/// The canonical group names, in table order.
pub fn group_names() -> Vec<&'static str> {
    groups().iter().map(|(g, _)| *g).collect()
}

/// Every known (preset) configuration: every [`groups`] entry resolved,
/// first occurrence of each name kept. Memoized and borrowed — name
/// resolution hits this once per plan entry, so callers clone only what
/// they keep.
pub fn known_configs() -> &'static [SimConfig] {
    static KNOWN: OnceLock<Vec<SimConfig>> = OnceLock::new();
    KNOWN.get_or_init(|| {
        let mut seen = std::collections::HashSet::new();
        groups()
            .iter()
            .flat_map(|(_, specs)| specs)
            .map(|spec| spec.resolve().expect("preset specs resolve").remove(0))
            .filter(|c| seen.insert(c.name.clone()))
            .collect()
    })
}

/// Look a known configuration up by display name.
pub fn find_config(name: &str) -> Option<SimConfig> {
    known_configs().iter().find(|c| c.name == name).cloned()
}

/// The axes-form spec a known configuration resolves from, to compose
/// further axes onto (`rcmc run --config NAME --topology T`).
pub fn preset_spec(name: &str) -> Option<ConfigSpec> {
    groups()
        .iter()
        .flat_map(|(_, specs)| specs)
        .find(|spec| spec.resolve().is_ok_and(|c| c[0].name == name))
        .cloned()
}

/// Render Table 2 (the fixed processor configuration) as text.
pub fn table2_text() -> String {
    let mem = MemConfig::default();
    let pred = PredictorConfig::default();
    let core = CoreConfig::default();
    format!(
        "Table 2. Processor configuration\n\
         --------------------------------\n\
         Fetch, decode, commit width: {fw} instructions\n\
         Branch pred.: Hybrid {g}K Gshare, {b}K bimodal, {s}K selector\n\
         BTB: {btb} entries, {ways}-way; RAS: {ras} entries\n\
         L1 Icache: {l1i}KB, {l1iw}-way, {l1il} byte line ({l1il_lat} cycle)\n\
         L1 Dcache: {l1d}KB, {l1dw}-way, {l1dl} byte line, {ports} R/W ports ({l1d_lat} cycles)\n\
         L2 unified: {l2}KB, {l2w}-way, {l2l} byte line ({l2_lat} cycles hit, {mem_lat} cycles miss, {chunk} cycles interchunk)\n\
         Latency to/from L1 Dcache: {xfer} cycle\n\
         Fetch queue: {fq} entries\n\
         Issue queue (4 clusters): 32 INT + 32 FP + 16 comm entries/cluster\n\
         Issue queue (8 clusters): 16 INT + 16 FP + 16 comm entries/cluster\n\
         Reorder buffer: {rob} entries\n\
         Load/store queue: {lsq} entries\n\
         Register file (4 clusters): 64 INT + 64 FP registers per cluster\n\
         Register file (8 clusters): 48 INT + 48 FP registers per cluster\n\
         INT units: ALU (1 cycle), mult/div (3 cycle mult, 20 cycle non-pipelined div)\n\
         FP units: ALU (2 cycles), mult/div (4 cycle mult, 12 cycle non-pipelined div)\n",
        fw = core.fetch_width,
        g = pred.gshare_entries / 1024,
        b = pred.bimodal_entries / 1024,
        s = pred.selector_entries / 1024,
        btb = pred.btb_entries,
        ways = pred.btb_ways,
        ras = pred.ras_depth,
        l1i = mem.l1i.size / 1024,
        l1iw = mem.l1i.ways,
        l1il = mem.l1i.line,
        l1il_lat = mem.l1i.latency,
        l1d = mem.l1d.size / 1024,
        l1dw = mem.l1d.ways,
        l1dl = mem.l1d.line,
        ports = mem.dcache_ports,
        l1d_lat = mem.l1d.latency,
        l2 = mem.l2.size / 1024,
        l2w = mem.l2.ways,
        l2l = mem.l2.line,
        l2_lat = mem.l2.latency,
        mem_lat = mem.mem_latency,
        chunk = mem.l2_interchunk,
        xfer = mem.dcache_transfer,
        fq = core.fetch_queue,
        rob = core.rob,
        lsq = core.lsq,
    )
}

/// Render Table 3 (the ten evaluated configurations, the `table3` group
/// in resolve order) as text.
pub fn table3_text() -> String {
    use std::fmt::Write as _;
    let mut text = String::from(
        "Table 3. Evaluated configurations\n\
         ---------------------------------\n",
    );
    let _ = writeln!(
        text,
        "{:12} {:>6} {:>12} {:>6}  name",
        "architect.", "clus", "issue width", "buses"
    );
    let table3 = ConfigSpec::group("table3").resolve();
    for c in table3.expect("the table3 group resolves") {
        let _ = writeln!(
            text,
            "{:12} {:>6} {:>12} {:>6}  {}",
            topology_name(c.core.topology),
            c.core.n_clusters,
            format!("{} INT + {} FP", c.core.iw_int, c.core.iw_fp),
            c.core.n_buses,
            c.name
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One group's grid, resolved.
    fn grid(group: &str) -> Vec<SimConfig> {
        ConfigSpec::group(group).resolve().unwrap()
    }

    #[test]
    fn table3_has_ten_rows() {
        let cfgs = grid("table3");
        assert_eq!(cfgs.len(), 10);
        for c in &cfgs {
            assert!(c.core.validate().is_ok(), "{} invalid", c.name);
        }
    }

    #[test]
    fn names_follow_the_paper() {
        let cfgs = grid("table3");
        let names: Vec<&str> = cfgs.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"Conv_4clus_1bus_2IW"));
        assert!(names.contains(&"Ring_8clus_2bus_1IW"));
        assert!(names.contains(&"Ring_8clus_1bus_2IW"));
    }

    #[test]
    fn cluster_count_sets_queue_and_regfile_sizes() {
        let four = make(Topology::Ring, 4, 2, 1);
        assert_eq!(four.core.iq_int, 32);
        assert_eq!(four.core.regs_int, 64);
        let eight = make(Topology::Ring, 8, 2, 1);
        assert_eq!(eight.core.iq_int, 16);
        assert_eq!(eight.core.regs_int, 48);
    }

    #[test]
    fn fig12_doubles_hop_latency() {
        let v = grid("fig12");
        assert_eq!(v.len(), 4);
        for c in &v {
            assert_eq!(c.core.hop_latency, 2);
            assert!(c.name.ends_with("_2cyclehop"));
        }
    }

    #[test]
    fn ssa_variants_change_only_steering() {
        for (base, ssa) in grid("table3").iter().zip(grid("ssa")) {
            assert_eq!(ssa.core.steering, Steering::Ssa);
            assert_eq!(ssa.core.topology, base.core.topology);
            assert_eq!(ssa.core.n_buses, base.core.n_buses);
            assert!(ssa.name.ends_with("+SSA"));
        }
    }

    #[test]
    fn crossbar_configs_build_and_parse() {
        let x = make(Topology::Crossbar, 8, 2, 1);
        assert_eq!(x.name, "Xbar_8clus_1bus_2IW");
        assert_eq!(x.core.steering, Steering::ConvDcount);
        assert!(x.core.validate().is_ok());
        assert_eq!(parse_topology("crossbar"), Some(Topology::Crossbar));
        assert_eq!(parse_topology("XBAR"), Some(Topology::Crossbar));
        assert_eq!(parse_topology("ring"), Some(Topology::Ring));
        assert_eq!(parse_topology("bus"), Some(Topology::Conv));
        assert_eq!(parse_topology("mesh"), Some(Topology::Mesh));
        assert_eq!(parse_topology("hier"), Some(Topology::Hier));
        assert_eq!(parse_topology("hierarchical"), Some(Topology::Hier));
        assert_eq!(parse_topology("torus"), None);
    }

    #[test]
    fn steering_parses_and_names() {
        assert_eq!(parse_steering("ringdep"), Some(Steering::RingDep));
        assert_eq!(parse_steering("DEP"), Some(Steering::RingDep));
        assert_eq!(parse_steering("dcount"), Some(Steering::ConvDcount));
        assert_eq!(parse_steering("SSA"), Some(Steering::Ssa));
        assert_eq!(parse_steering("random"), None);
        // Default pairings carry no suffix; the SSA suffix matches §4.7.
        assert_eq!(steering_suffix(Topology::Ring, Steering::RingDep), "");
        assert_eq!(steering_suffix(Topology::Ring, Steering::Ssa), "+SSA");
        assert_eq!(steering_suffix(Topology::Mesh, Steering::ConvDcount), "");
        assert_eq!(
            steering_suffix(Topology::Crossbar, Steering::RingDep),
            "+DEP"
        );
        assert_eq!(
            steering_suffix(Topology::Ring, Steering::ConvDcount),
            "+DCOUNT"
        );
    }

    #[test]
    fn mesh_and_hier_presets_build() {
        let m = make(Topology::Mesh, 8, 2, 1);
        assert_eq!(m.name, "Mesh_8clus_1bus_2IW");
        assert_eq!(m.core.steering, Steering::ConvDcount);
        assert!(m.core.validate().is_ok());
        let h = make(Topology::Hier, 8, 2, 2);
        assert_eq!(h.name, "Hier_8clus_2bus_2IW");
        assert_eq!(h.core.steering, Steering::ConvDcount);
        assert!(h.core.validate().is_ok());
    }

    #[test]
    fn topology_ablation_grid_covers_all_five() {
        let v = grid("topology");
        assert_eq!(v.len(), 10);
        let names: Vec<&str> = v.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"Ring_8clus_1bus_2IW"));
        assert!(names.contains(&"Conv_8clus_2bus_2IW"));
        assert!(names.contains(&"Xbar_8clus_1bus_2IW"));
        assert!(names.contains(&"Mesh_8clus_2bus_2IW"));
        assert!(names.contains(&"Hier_8clus_1bus_2IW"));
        for c in &v {
            assert!(c.core.validate().is_ok(), "{} invalid", c.name);
        }
    }

    #[test]
    fn steering_cross_grid_is_the_full_product() {
        let v = grid("steering-cross");
        assert_eq!(v.len(), ALL_TOPOLOGIES.len() * ALL_STEERINGS.len());
        // Names are unique and every (topology, steering) pair appears.
        let mut names: Vec<&str> = v.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), v.len(), "duplicate cross-config names");
        for topology in ALL_TOPOLOGIES {
            for steering in ALL_STEERINGS {
                assert!(
                    v.iter()
                        .any(|c| c.core.topology == topology && c.core.steering == steering),
                    "{topology:?} x {steering:?} missing"
                );
            }
        }
        // Default pairings reuse the ablation names (shared memoization).
        assert!(v.iter().any(|c| c.name == "Ring_8clus_1bus_2IW"));
        assert!(v.iter().any(|c| c.name == "Ring_8clus_1bus_2IW+SSA"));
        for c in &v {
            assert!(c.core.validate().is_ok(), "{} invalid", c.name);
        }
    }

    #[test]
    fn table2_text_mentions_key_parameters() {
        let t = table2_text();
        assert!(t.contains("256 entries"));
        assert!(t.contains("Hybrid 2K Gshare"));
        assert!(t.contains("20 cycle non-pipelined div"));
    }
}
