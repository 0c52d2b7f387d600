//! The preset table, pinned: every known configuration's name, store key
//! (`store_name`, the content identity memoized rows are filed under) and
//! a checksum of its whole resolved `SimConfig`, in `known_configs()`
//! order, plus each machine family on its default axes on `ring` and
//! `conv`. `perfbench/digests.txt` and report references are keyed by the
//! names, so a refactor of how configurations are built must leave every
//! row here untouched.

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
    ("Conv_4clus_1bus_2IW", "1749f5d036ac2cf2", 0x85a12daf5c647890),
    ("Conv_8clus_1bus_1IW", "67dcb39146831956", 0xb185c30c373db7c1),
    ("Conv_8clus_2bus_1IW", "5bba0fa336f2514d", 0xc1bb63c80c3b5f63),
    ("Conv_8clus_1bus_2IW", "f68c40b0f0108bb2", 0xa4bf0d45bd5ef87c),
    ("Conv_8clus_2bus_2IW", "0348191e2bb75b59", 0xf7743fa1d44ef90a),
    ("Ring_4clus_1bus_2IW", "cf9056cd95fb3aa2", 0xbff066063e9eb6ea),
    ("Ring_8clus_1bus_1IW", "19c8dbc8fdf2f006", 0x6a8ef34c9643ad71),
    ("Ring_8clus_2bus_1IW", "cd4376b831180cc7", 0xe7379b34aaeec6fb),
    ("Ring_8clus_1bus_2IW", "1ad72488a53f1602", 0x151989045bd2df66),
    ("Ring_8clus_2bus_2IW", "1ce3cdd93bb6ac33", 0x46887420738cf534),
    ("Ring_8clus_1bus_2IW_2cyclehop", "53fcc65082e1b957", 0xe3ce504fb0ccfd55),
    ("Ring_8clus_2bus_2IW_2cyclehop", "29748caef914861e", 0x50f3a41b60ca1c9b),
    ("Conv_8clus_1bus_2IW_2cyclehop", "0d75eaa15d51445d", 0xbbab771317a586e5),
    ("Conv_8clus_2bus_2IW_2cyclehop", "b14342721a0cda5e", 0x99c963b437621783),
    ("Conv_4clus_1bus_2IW+SSA", "56837aa1ddaa6110", 0x7908bfa679bdb1b6),
    ("Conv_8clus_1bus_1IW+SSA", "23a9b9da2ab9a514", 0xc5fb37e0c1c9c7c1),
    ("Conv_8clus_2bus_1IW+SSA", "b78917acdc3e7195", 0x52fd97fcda181aef),
    ("Conv_8clus_1bus_2IW+SSA", "4a6b38086a453158", 0xbf55d2237c65999a),
    ("Conv_8clus_2bus_2IW+SSA", "bc909d2d58310919", 0x7cbacd9e8caf24cc),
    ("Ring_4clus_1bus_2IW+SSA", "8f1c853c4ca07538", 0x69a248142a4bf98a),
    ("Ring_8clus_1bus_1IW+SSA", "5dd2f20e07da91bc", 0x9452baa4975d0f85),
    ("Ring_8clus_2bus_1IW+SSA", "e148b2fca04aba45", 0xbddfd60bc03f14a7),
    ("Ring_8clus_1bus_2IW+SSA", "0f5d3200411987e8", 0xe9bf0d7477a3d0de),
    ("Ring_8clus_2bus_2IW+SSA", "283178a93407d911", 0x0bc976f6c9478aec),
    ("Xbar_8clus_1bus_2IW", "4a6f2d94d71ffeda", 0x2e991bcefcf474f1),
    ("Xbar_8clus_2bus_2IW", "31cbf1febcb17b87", 0x5635015d4d9dc833),
    ("Mesh_8clus_1bus_2IW", "b69e6a442bf9801b", 0x9a6d7d9752621e1a),
    ("Mesh_8clus_2bus_2IW", "379c2b5a1d429a74", 0x290eaa8c9ebdbb8c),
    ("Hier_8clus_1bus_2IW", "12343e26441b1024", 0x3c4524bc2a8fc8e8),
    ("Hier_8clus_2bus_2IW", "0a2db839cc9580c7", 0x505167169d3e64a2),
    ("Ring_8clus_1bus_2IW+DCOUNT", "5eeea801253c3102", 0xdf973b9d64dee844),
    ("Conv_8clus_1bus_2IW+DEP", "67b37810feed45b2", 0x806f4276f2d4f55c),
    ("Xbar_8clus_1bus_2IW+DEP", "68e741efbe5913ed", 0xc784cef7aaf44c4a),
    ("Xbar_8clus_1bus_2IW+SSA", "664659538220c84f", 0x0eab3e6bcf3d7aa0),
    ("Mesh_8clus_1bus_2IW+DEP", "6c1cca1059208525", 0xc5ac3d652cf0410e),
    ("Mesh_8clus_1bus_2IW+SSA", "b6592b62c3ca8b67", 0xe909e759c06fa964),
    ("Hier_8clus_1bus_2IW+DEP", "dd47c6a9ef79ed14", 0xfa941819fc4a95fc),
    ("Hier_8clus_1bus_2IW+SSA", "dd0b3fd3d22ee27e", 0x02b6bb875efbf8a2),
];

#[rustfmt::skip]
const FAMILIES: [(&str, &str, u64); 8] = [
    ("Ring_8clus_1bus_2IW", "1ad72488a53f1602", 0x151989045bd2df66),
    ("Conv_8clus_1bus_2IW", "f68c40b0f0108bb2", 0xa4bf0d45bd5ef87c),
    ("Ring_8clus_2bus_6IW~m:wide", "6692534508eff993", 0x52996308e709f95a),
    ("Conv_8clus_2bus_6IW~m:wide", "1c0f0fc5307c3795", 0x9f86a8b5484fcc54),
    ("Ring_2clus_1bus_1IW~m:narrow", "d28d9175042bf97c", 0x0e8322543d1db06f),
    ("Conv_2clus_1bus_1IW~m:narrow", "e79280524a482344", 0x1886b58fef964417),
    ("Ring_8clus_1bus_2IW~m:slowmem", "7141e46f6257c6d5", 0xdbbeac84ca78cb08),
    ("Conv_8clus_1bus_2IW~m:slowmem", "085ab2814ec98cc5", 0x2752f26f378157a8),
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
