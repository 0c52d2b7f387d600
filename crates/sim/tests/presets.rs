//! The preset table, pinned: every known configuration's name, store key
//! and a checksum of its whole resolved `SimConfig`, in `known_configs()`
//! order, plus each machine family on its default axes on `ring` and
//! `conv`. Memoized result rows and `perfbench/digests.txt` are keyed by
//! these names, so a refactor of how configurations are built must leave
//! every row here untouched.

use rcmc_sim::config::{known_configs, SimConfig};
use rcmc_sim::plan::ConfigSpec;
use rcmc_sim::runner::store_name;

/// FNV-1a over the `Debug` rendering of the whole configuration (core,
/// memory and predictor), so any field that moves changes the checksum.
fn checksum(cfg: &SimConfig) -> u64 {
    format!("{cfg:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Compare `cfgs` row by row against `want`: name, store key, checksum.
fn check<'a>(cfgs: impl IntoIterator<Item = &'a SimConfig>, want: &[(&str, &str, u64)]) {
    let got: Vec<(&str, String, u64)> = cfgs
        .into_iter()
        .map(|c| (c.name.as_str(), store_name(c), checksum(c)))
        .collect();
    let want: Vec<(&str, String, u64)> = want.iter().map(|&(n, s, h)| (n, s.into(), h)).collect();
    assert_eq!(got, want);
}

#[rustfmt::skip]
const PRESETS: [(&str, &str, u64); 38] = [
    ("Conv_4clus_1bus_2IW", "Conv_4clus_1bus_2IW", 0x85a12daf5c647890),
    ("Conv_8clus_1bus_1IW", "Conv_8clus_1bus_1IW", 0xb185c30c373db7c1),
    ("Conv_8clus_2bus_1IW", "Conv_8clus_2bus_1IW", 0xc1bb63c80c3b5f63),
    ("Conv_8clus_1bus_2IW", "Conv_8clus_1bus_2IW", 0xa4bf0d45bd5ef87c),
    ("Conv_8clus_2bus_2IW", "Conv_8clus_2bus_2IW", 0xf7743fa1d44ef90a),
    ("Ring_4clus_1bus_2IW", "Ring_4clus_1bus_2IW", 0xbff066063e9eb6ea),
    ("Ring_8clus_1bus_1IW", "Ring_8clus_1bus_1IW", 0x6a8ef34c9643ad71),
    ("Ring_8clus_2bus_1IW", "Ring_8clus_2bus_1IW", 0xe7379b34aaeec6fb),
    ("Ring_8clus_1bus_2IW", "Ring_8clus_1bus_2IW", 0x151989045bd2df66),
    ("Ring_8clus_2bus_2IW", "Ring_8clus_2bus_2IW", 0x46887420738cf534),
    ("Ring_8clus_1bus_2IW_2cyclehop", "Ring_8clus_1bus_2IW_2cyclehop", 0xe3ce504fb0ccfd55),
    ("Ring_8clus_2bus_2IW_2cyclehop", "Ring_8clus_2bus_2IW_2cyclehop", 0x50f3a41b60ca1c9b),
    ("Conv_8clus_1bus_2IW_2cyclehop", "Conv_8clus_1bus_2IW_2cyclehop", 0xbbab771317a586e5),
    ("Conv_8clus_2bus_2IW_2cyclehop", "Conv_8clus_2bus_2IW_2cyclehop", 0x99c963b437621783),
    ("Conv_4clus_1bus_2IW+SSA", "Conv_4clus_1bus_2IW+SSA", 0x7908bfa679bdb1b6),
    ("Conv_8clus_1bus_1IW+SSA", "Conv_8clus_1bus_1IW+SSA", 0xc5fb37e0c1c9c7c1),
    ("Conv_8clus_2bus_1IW+SSA", "Conv_8clus_2bus_1IW+SSA", 0x52fd97fcda181aef),
    ("Conv_8clus_1bus_2IW+SSA", "Conv_8clus_1bus_2IW+SSA", 0xbf55d2237c65999a),
    ("Conv_8clus_2bus_2IW+SSA", "Conv_8clus_2bus_2IW+SSA", 0x7cbacd9e8caf24cc),
    ("Ring_4clus_1bus_2IW+SSA", "Ring_4clus_1bus_2IW+SSA", 0x69a248142a4bf98a),
    ("Ring_8clus_1bus_1IW+SSA", "Ring_8clus_1bus_1IW+SSA", 0x9452baa4975d0f85),
    ("Ring_8clus_2bus_1IW+SSA", "Ring_8clus_2bus_1IW+SSA", 0xbddfd60bc03f14a7),
    ("Ring_8clus_1bus_2IW+SSA", "Ring_8clus_1bus_2IW+SSA", 0xe9bf0d7477a3d0de),
    ("Ring_8clus_2bus_2IW+SSA", "Ring_8clus_2bus_2IW+SSA", 0x0bc976f6c9478aec),
    ("Xbar_8clus_1bus_2IW", "Xbar_8clus_1bus_2IW~dc8", 0x2e991bcefcf474f1),
    ("Xbar_8clus_2bus_2IW", "Xbar_8clus_2bus_2IW~dc8", 0x5635015d4d9dc833),
    ("Mesh_8clus_1bus_2IW", "Mesh_8clus_1bus_2IW~dc12", 0x9a6d7d9752621e1a),
    ("Mesh_8clus_2bus_2IW", "Mesh_8clus_2bus_2IW~dc12", 0x290eaa8c9ebdbb8c),
    ("Hier_8clus_1bus_2IW", "Hier_8clus_1bus_2IW~dc12", 0x3c4524bc2a8fc8e8),
    ("Hier_8clus_2bus_2IW", "Hier_8clus_2bus_2IW~dc12", 0x505167169d3e64a2),
    ("Ring_8clus_1bus_2IW+DCOUNT", "Ring_8clus_1bus_2IW+DCOUNT", 0xdf973b9d64dee844),
    ("Conv_8clus_1bus_2IW+DEP", "Conv_8clus_1bus_2IW+DEP", 0x806f4276f2d4f55c),
    ("Xbar_8clus_1bus_2IW+DEP", "Xbar_8clus_1bus_2IW+DEP", 0xc784cef7aaf44c4a),
    ("Xbar_8clus_1bus_2IW+SSA", "Xbar_8clus_1bus_2IW+SSA", 0x0eab3e6bcf3d7aa0),
    ("Mesh_8clus_1bus_2IW+DEP", "Mesh_8clus_1bus_2IW+DEP", 0xc5ac3d652cf0410e),
    ("Mesh_8clus_1bus_2IW+SSA", "Mesh_8clus_1bus_2IW+SSA", 0xe909e759c06fa964),
    ("Hier_8clus_1bus_2IW+DEP", "Hier_8clus_1bus_2IW+DEP", 0xfa941819fc4a95fc),
    ("Hier_8clus_1bus_2IW+SSA", "Hier_8clus_1bus_2IW+SSA", 0x02b6bb875efbf8a2),
];

#[rustfmt::skip]
const FAMILIES: [(&str, &str, u64); 8] = [
    ("Ring_8clus_1bus_2IW", "Ring_8clus_1bus_2IW", 0x151989045bd2df66),
    ("Conv_8clus_1bus_2IW", "Conv_8clus_1bus_2IW", 0xa4bf0d45bd5ef87c),
    ("Ring_8clus_2bus_6IW~m:wide", "Ring_8clus_2bus_6IW~m:wide", 0x52996308e709f95a),
    ("Conv_8clus_2bus_6IW~m:wide", "Conv_8clus_2bus_6IW~m:wide", 0x9f86a8b5484fcc54),
    ("Ring_2clus_1bus_1IW~m:narrow", "Ring_2clus_1bus_1IW~m:narrow", 0x0e8322543d1db06f),
    ("Conv_2clus_1bus_1IW~m:narrow", "Conv_2clus_1bus_1IW~m:narrow", 0x1886b58fef964417),
    ("Ring_8clus_1bus_2IW~m:slowmem", "Ring_8clus_1bus_2IW~m:slowmem", 0xdbbeac84ca78cb08),
    ("Conv_8clus_1bus_2IW~m:slowmem", "Conv_8clus_1bus_2IW~m:slowmem", 0x2752f26f378157a8),
];

#[test]
fn preset_table_is_pinned() {
    check(known_configs(), &PRESETS);
}

#[test]
fn machine_families_are_pinned_on_ring_and_conv() {
    let mut cfgs = Vec::new();
    for family in ["paper2005", "wide", "narrow", "slowmem"] {
        for topology in ["ring", "conv"] {
            let spec = ConfigSpec {
                topology: Some(topology.into()),
                ..ConfigSpec::for_machine(family)
            };
            cfgs.extend(spec.resolve().unwrap());
        }
    }
    check(&cfgs, &FAMILIES);
}
