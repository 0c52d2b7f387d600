//! Chaos suite, plan slice: fuzzed config entries through the whole
//! request path. Each case is a plan spec with one axes-form config entry
//! (any topology × steering pair at 2-16 clusters, 1-4 buses) carrying a
//! random `"overrides"` map over every key of `OVERRIDE_KEYS`, each value
//! drawn from a pool the key accepts or one it must refuse (wrong JSON
//! types, zero, negative, fractional and oversized numbers, out-of-range
//! register files). The spec goes through `Plan::from_json`, then a
//! one-worker ephemeral session on a tiny window.
//!
//! The invariants: nothing panics, a spec with any refused value (or a
//! duplicated key, or a machine its pair cannot build) comes back as
//! `Err`, and every other spec gives its row. Cases are deterministic
//! (the vendored proptest seeds each case from the test name).

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use ring_clustered::core::config::OVERRIDE_KEYS;
use ring_clustered::sim::{Plan, Session};

const TOPOLOGIES: [&str; 5] = ["ring", "conv", "crossbar", "mesh", "hier"];
const STEERINGS: [&str; 3] = ["dep", "dcount", "ssa"];
const BENCHES: [&str; 4] = ["gzip", "swim", "mcf", "art"];

/// Values `key` accepts, and values it must refuse, as JSON text.
fn pools(key: &str) -> (&'static [&'static str], &'static [&'static str]) {
    // Zero, negative, fractional, past the 1e9 parse limit or a queue past
    // RUN_AHEAD, and every wrong JSON type.
    const BAD_UINT: &[&str] = &[
        "0", "-3", "2.5", "1e9", "2e9", r#""8""#, "true", "null", "[4]", "{}",
    ];
    match key {
        "commit_width" | "fetch_width" => (&["1", "3", "8"], BAD_UINT),
        "fetch_queue" => (&["1", "4", "64"], BAD_UINT),
        "frontend_depth" => (&["1", "3", "40"], &["0", "511.5", "512", "1000000", "null"]),
        "iq_comm" | "iq_fp" | "iq_int" => (&["1", "4", "32"], BAD_UINT),
        "lsq" | "store_buffer" => (&["1", "8", "128"], BAD_UINT),
        // The register file must cover the architectural registers plus
        // rename headroom; 1e9 fits the free-register counters.
        "regs_fp" | "regs_int" => (&["40", "64", "1e9"], &["39", "8", "0", "2e9", "-40", "[]"]),
        "rob" => (
            &["1", "16", "256"],
            &["0", "20000", "1e9", "-1", "1.5", "{}"],
        ),
        "dcount_threshold" => (&["0.5", "16", "1e9"], &["0", "-2", r#""16""#, "false"]),
        "copy_release" => (
            &[r#""at_commit""#, r#""on_read""#, r#""ON_LAST_READ""#],
            &[r#""sometimes""#, "1", "true", "null"],
        ),
        "hier_pair_links" => (&["true", "false"], &["1", r#""on""#, "null"]),
        other => panic!("no value pools for override key '{other}': add them"),
    }
}

/// One fuzzed override: key index, whether the value is drawn from the
/// refused pool, and which value.
type Override = (usize, bool, usize);

fn spec(topo: &str, steer: &str, clusters: usize, buses: usize, body: &str, bench: &str) -> String {
    format!(
        r#"{{"name": "chaos", "configs": [{{"topology": "{topo}", "steering": "{steer}",
            "clusters": {clusters}, "buses": {buses}{body}}}], "benches": ["{bench}"],
            "budget": {{"warmup": 200, "measure": 1000}}}}"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn fuzzed_config_entries_fail_typed_or_run(
        (topo, steer, clusters, buses, bench) in (0usize..5, 0usize..3, 2usize..17, 1usize..5, 0usize..4),
        overrides in prop::collection::vec(
            (0usize..OVERRIDE_KEYS.len(), prop_oneof![Just(false), Just(false), Just(true)], 0usize..64),
            0..5,
        ),
    ) {
        let (topo, steer, bench) = (TOPOLOGIES[topo], STEERINGS[steer], BENCHES[bench]);
        let overrides: Vec<Override> = overrides;
        let mut entries = Vec::new();
        let mut refused = false;
        for &(k, bad, pick) in &overrides {
            let key = OVERRIDE_KEYS[k];
            let (good, bad_pool) = pools(key);
            let pool = if bad { bad_pool } else { good };
            refused |= bad;
            entries.push(format!(r#""{key}": {}"#, pool[pick % pool.len()]));
        }
        let mut keys: Vec<usize> = overrides.iter().map(|o| o.0).collect();
        keys.sort_unstable();
        keys.dedup();
        let duplicated = keys.len() < overrides.len();
        let body = if entries.is_empty() {
            String::new()
        } else {
            format!(r#", "overrides": {{{}}}"#, entries.join(", "))
        };
        let text = spec(topo, steer, clusters, buses, &body, bench);
        // Whether the pair builds at all, overrides aside (a bus count or
        // cluster count the topology cannot take is a typed error too).
        let base_ok = Plan::from_json(&spec(topo, steer, clusters, buses, "", bench))
            .and_then(|p| p.resolve())
            .is_ok();

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Plan::from_json(&text).and_then(|plan| Session::ephemeral().with_jobs(1).run(&plan))
        }));
        let Ok(result) = outcome else {
            panic!("panicked on {text}");
        };
        match result {
            Ok(rs) => {
                prop_assert!(
                    base_ok && !refused && !duplicated,
                    "accepted a spec it must refuse: {text}"
                );
                prop_assert_eq!(rs.len(), 1, "{}", text);
                let row = &rs.rows()[0];
                prop_assert!(row.committed > 0 && row.ipc > 0.0, "{text}: {row:?}");
            }
            Err(e) => {
                prop_assert!(
                    !(base_ok && !refused && !duplicated),
                    "refused a valid spec: {text}: {e}"
                );
                prop_assert!(!e.is_empty(), "{text}");
            }
        }
    }
}

/// Cases the fuzzer reached that once took the process down, kept by name.
#[test]
fn a_front_end_deeper_than_the_event_wheel_is_refused_not_a_watchdog_panic() {
    // `frontend_depth` 1e6 used to validate; the run then made no commit
    // for 200,000 cycles and the watchdog assert panicked.
    let text = spec(
        "ring",
        "dep",
        2,
        1,
        r#", "overrides": {"frontend_depth": 1000000}"#,
        "swim",
    );
    let plan = Plan::from_json(&text).unwrap();
    let err = Session::ephemeral().with_jobs(1).run(&plan).unwrap_err();
    assert!(err.contains("frontend_depth"), "{err}");
}

#[test]
fn an_issue_queue_of_a_billion_entries_is_refused_before_it_is_allocated() {
    // `iq_int` 1e9 used to validate, and every cluster reserved its full
    // issue-queue capacity up front.
    for key in ["iq_int", "iq_fp", "iq_comm", "lsq", "store_buffer"] {
        let body = format!(r#", "overrides": {{"{key}": 1000000000}}"#);
        let plan = Plan::from_json(&spec("conv", "dcount", 16, 2, &body, "gzip")).unwrap();
        let err = Session::ephemeral().with_jobs(1).run(&plan).unwrap_err();
        assert!(err.contains(key) && err.contains("RUN_AHEAD"), "{err}");
    }
}
