//! CLI surface of the machine registry and of `rcmc run`'s configuration
//! flags: `rcmc machines list|show`, and how `run` composes its flags like
//! the fields of one plan config entry — `--config` (or `--machine`)
//! picks the starting point, `--topology` moves it onto another
//! interconnect with that topology's default steering, `--steering` then
//! sets the policy, and a bad value exits 2.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rcmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rcmc"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcmc-mcli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn machines_list_renders_every_family() {
    let out = rcmc().args(["machines", "list"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    for family in ["paper2005", "wide", "narrow", "slowmem"] {
        assert!(text.contains(family), "missing {family}:\n{text}");
    }
    // The arch-table header carries the axes columns.
    assert!(text.contains("rob"), "{text}");
    assert!(text.contains("memlat"), "{text}");
}

#[test]
fn machines_show_details_one_family_and_rejects_unknown() {
    let out = rcmc().args(["machines", "show", "wide"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("wide"), "{text}");
    assert!(text.contains("512"), "wide ROB sizing missing:\n{text}");

    let bad = rcmc().args(["machines", "show", "nope"]).output().unwrap();
    assert!(!bad.status.success(), "{bad:?}");
    assert!(
        stderr(&bad).contains("paper2005"),
        "unknown-family error must list the registry:\n{}",
        stderr(&bad)
    );
}

/// `rcmc run swim <flags>` (space-separated) on a tiny window, against a
/// private target directory.
fn run(tag: &str, flags: &str) -> Output {
    let target = temp_dir(tag);
    let out = rcmc()
        .env("CARGO_TARGET_DIR", &target)
        .args(["run", "swim", "--instrs", "2000", "--warmup", "500"])
        .args(flags.split_whitespace())
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&target);
    out
}

/// The configuration name `rcmc run` reports it simulated.
fn simulated(tag: &str, flags: &str) -> String {
    let out = run(tag, flags);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let name = text
        .strip_prefix("swim on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected output:\n{text}"));
    name.to_string()
}

#[test]
fn run_with_machine_simulates_the_tagged_config() {
    let name = simulated("narrow", "--machine narrow");
    assert_eq!(name, "Ring_2clus_1bus_1IW~m:narrow");
}

#[test]
fn machine_and_config_flags_conflict() {
    let out = run("conflict", "--machine narrow --config Ring_8clus_1bus_2IW");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        stderr(&out).contains("--machine"),
        "conflict diagnostic must name the flags:\n{}",
        stderr(&out)
    );
}

#[test]
fn topology_keeps_the_shape_and_hop_latency_and_steering_applies_after() {
    let flags = "--config Ring_8clus_1bus_2IW_2cyclehop --topology crossbar --steering dep";
    let name = simulated("xbar-dep", flags);
    assert_eq!(name, "Xbar_8clus_1bus_2IW+DEP_2cyclehop");
}

#[test]
fn topology_drops_the_presets_steering_for_its_own_default() {
    let flags = "--config Ring_8clus_1bus_2IW+SSA --topology conv";
    assert_eq!(simulated("ssa-conv", flags), "Conv_8clus_1bus_2IW");
}

#[test]
fn machine_composes_with_topology() {
    let name = simulated("wide-conv", "--machine wide --topology conv");
    assert_eq!(name, "Conv_8clus_2bus_6IW~m:wide");
}

#[test]
fn bad_topology_and_steering_values_exit_2() {
    for flags in ["--topology torus", "--steering random"] {
        let value = flags.rsplit(' ').next().unwrap();
        let out = run(value, flags);
        assert_eq!(out.status.code(), Some(2), "{flags}: {out:?}");
        assert!(stderr(&out).contains(value), "{flags}: {out:?}");
    }
}

#[test]
fn plan_list_includes_the_machine_registry() {
    let out = rcmc().args(["plan", "list"]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    for family in ["paper2005", "wide", "narrow", "slowmem"] {
        assert!(text.contains(family), "missing {family}:\n{text}");
    }
    // Builtin plans still listed alongside the registry.
    assert!(text.contains("steering-cross"), "{text}");
}
