//! Chaos suite, plan slice: fuzzed plan specs through the whole request
//! path.
//!
//! - Config entries: each case is a plan spec with one axes-form config
//!   entry (any topology × steering pair at 2-16 clusters, 1-4 buses)
//!   carrying a random `"overrides"` map over every key of
//!   `OVERRIDE_KEYS`, each value drawn from a pool the key accepts or one
//!   it must refuse (wrong JSON types, zero, negative, fractional and
//!   oversized numbers, out-of-range register files).
//! - Budgets and reports: each case draws `warmup` and `measure` from
//!   {0, 1, small, 1e9} or a wrong JSON type, the config list (unknown
//!   names, unknown and empty groups) and the benches from valid,
//!   unknown, empty and wrongly typed entries, and up
//!   to three reports from a pool of valid specs and refused ones
//!   (unknown kinds, metrics and config names, empty pairs, a matrix
//!   without cells, wrong types). The budget goes in through the JSON
//!   spec and, for numbers, through the builder on the parsed plan.
//!
//! Each spec goes through `Plan::from_json`, then a one-worker ephemeral
//! session on a tiny window; a valid plan with a 1e9 window is resolved
//! only, never simulated. The invariants: nothing panics, a spec with any
//! refused value (or a duplicated key, or a machine its pair cannot build)
//! comes back as `Err`, and every other spec gives its rows and renders
//! its reports. Cases are deterministic (the vendored proptest seeds each
//! case from the test name).

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use ring_clustered::core::config::OVERRIDE_KEYS;
use ring_clustered::sim::runner::Budget;
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

const RING: &str = "Ring_8clus_1bus_2IW";
const CONV: &str = "Conv_8clus_1bus_2IW";

/// Budget values as JSON text: the numbers {0, 1, small, 1e9}, then wrong
/// types and numbers the parser refuses.
const BUDGET_VALUES: [&str; 9] = ["0", "1", "150", "1e9", r#""5""#, "-1", "2.5", "null", "[]"];

/// A `"configs"` value and the configuration names it runs, `None` when
/// the plan must be refused.
fn configs_entry(pick: usize) -> (String, Option<Vec<&'static str>>) {
    match pick {
        0 => (
            format!(r#"[{{"name": "{RING}"}}, {{"name": "{CONV}"}}]"#),
            Some(vec![RING, CONV]),
        ),
        1 => (format!(r#"[{{"name": "{RING}"}}]"#), Some(vec![RING])),
        2 => (
            format!(r#"[{{"name": "{RING}"}}, {{"name": "Ring_9000clus"}}]"#),
            None,
        ),
        3 => (r#"[{"group": "nope"}]"#.to_string(), None),
        4 => ("[]".to_string(), None),
        5 => (r#"[{"group": ""}]"#.to_string(), None),
        _ => (format!(r#""{RING}""#), None),
    }
}

/// A `"benches"` value and how many distinct benches it runs, `None` when
/// the plan must be refused.
fn benches_entry(pick: usize) -> (&'static str, Option<usize>) {
    match pick {
        0 => (r#"["swim"]"#, Some(1)),
        1 => (r#"["gzip", "gzip"]"#, Some(1)),
        2 => (r#"["nope"]"#, None),
        3 => (r#"["swim", "nope"]"#, None),
        _ => (r#""swim""#, None),
    }
}

/// A report spec and the configuration names it needs the plan to run,
/// `None` when it must be refused whatever the plan runs.
fn report_entry(pick: usize) -> (String, Option<Vec<&'static str>>) {
    match pick {
        0 => (r#"{"kind": "grouped"}"#.into(), Some(vec![])),
        1 => (
            r#"{"kind": "geomean", "metric": "ipc"}"#.into(),
            Some(vec![]),
        ),
        2 => (r#"{"kind": "grouped", "configs": []}"#.into(), Some(vec![])),
        3 => (r#"{"kind": "csv", "title": "rows"}"#.into(), Some(vec![])),
        4 => (
            format!(r#"{{"kind": "speedup", "pairs": [{{"num": "{RING}", "den": "{CONV}"}}]}}"#),
            Some(vec![RING, CONV]),
        ),
        5 => (
            format!(r#"{{"kind": "distribution", "configs": ["{RING}"]}}"#),
            Some(vec![RING]),
        ),
        6 => (
            format!(r#"{{"kind": "matrix", "rows": ["a"], "cols": ["b"], "configs": ["{RING}"]}}"#),
            Some(vec![RING]),
        ),
        7 => (r#"{"kind": "speedup", "pairs": []}"#.into(), None),
        8 => (
            format!(
                r#"{{"kind": "speedup", "pairs": [{{"num": "{RING}", "den": "Nope_1clus"}}]}}"#
            ),
            None,
        ),
        9 => (
            r#"{"kind": "per-bench", "configs": ["Nope_1clus"]}"#.into(),
            None,
        ),
        10 => (
            r#"{"kind": "matrix", "rows": [], "cols": ["b"], "configs": []}"#.into(),
            None,
        ),
        11 => (r#"{"kind": "grouped", "metric": "bogus"}"#.into(), None),
        12 => (r#"{"kind": "bogus"}"#.into(), None),
        13 => (r#"{"kind": 5}"#.into(), None),
        14 => (r#"{"kind": "speedup", "pairs": {}}"#.into(), None),
        15 => (
            format!(r#"{{"kind": "grouped", "configs": "{RING}"}}"#),
            None,
        ),
        _ => ("{}".into(), None),
    }
}

/// How one plan must end.
#[derive(Debug, PartialEq)]
enum Want {
    Refused,
    /// Valid with a 1e9 window: resolved, never simulated.
    Resolves,
    /// Valid: this many rows, each with commits, and every report renders.
    Runs {
        rows: usize,
    },
}

/// Drive `plan` (`Err`: the spec did not parse) to its end, checking it
/// ends as `want` says, without letting a panic escape.
fn check(what: &str, plan: Result<Plan, String>, want: &Want) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let plan = plan?;
        if *want == Want::Resolves {
            return plan.resolve_in(None).map(|_| None);
        }
        let rs = Session::ephemeral().with_jobs(1).run(&plan)?;
        let reports = plan.render_reports(&rs)?;
        assert_eq!(reports.len(), plan.reports.len(), "{what}");
        Ok(Some(rs))
    }));
    let Ok(result) = outcome else {
        panic!("panicked on {what}");
    };
    match (want, result) {
        (Want::Refused, Err(e)) => assert!(!e.is_empty(), "{what}"),
        (Want::Resolves, Ok(None)) => {}
        (Want::Runs { rows }, Ok(Some(rs))) => {
            assert_eq!(rs.len(), *rows, "{what}");
            for row in rs.rows() {
                assert!(row.committed > 0 && row.ipc > 0.0, "{what}: {row:?}");
            }
        }
        (want, got) => panic!(
            "{what}: wanted {want:?}, got {:?}",
            got.map(|r| r.map(|rs| rs.len()))
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn fuzzed_budgets_and_reports_fail_typed_or_run(
        (warmup, measure, configs, benches) in (0usize..17, 0usize..17, 0usize..14, 0usize..10),
        reports in prop::collection::vec(0usize..30, 0..4),
    ) {
        // Weight the draws toward valid values, so that about one plan in
        // nine runs.
        let budget_pick = [0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 5, 6, 7, 8];
        let (warmup, measure) = (budget_pick[warmup], budget_pick[measure]);
        let configs = [0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 5, 6][configs];
        let benches = [0, 0, 0, 0, 0, 0, 1, 2, 3, 4][benches];
        let reports = reports.into_iter().map(|r| if r < 20 { r % 7 } else { r - 13 });
        let (configs_json, names) = configs_entry(configs);
        let (benches_json, bench_count) = benches_entry(benches);
        let reports: Vec<(String, Option<Vec<&str>>)> =
            reports.map(report_entry).collect();
        let reports_ok = reports.iter().all(|(_, needs)| match (needs, &names) {
            (Some(needs), Some(names)) => needs.iter().all(|n| names.contains(n)),
            _ => false,
        });
        let reports_json: Vec<&str> = reports.iter().map(|(r, _)| r.as_str()).collect();
        let body = format!(
            r#""name": "chaos", "configs": {configs_json}, "benches": {benches_json},
               "reports": [{}]"#,
            reports_json.join(", ")
        );
        let (w, m) = (BUDGET_VALUES[warmup], BUDGET_VALUES[measure]);
        let text = format!(r#"{{{body}, "budget": {{"warmup": {w}, "measure": {m}}}}}"#);

        // Only the four numbers are budgets. A window of 0 or 1 is below
        // the machines' commit width (8), where warm-up's last cycle could
        // commit past it, so it is refused.
        let numbers = warmup < 4 && measure < 4;
        let want = match (names.as_ref(), bench_count) {
            (Some(names), Some(benches)) if reports_ok && numbers && measure >= 2 => {
                if warmup == 3 || measure == 3 {
                    Want::Resolves
                } else {
                    Want::Runs {
                        rows: names.len() * benches,
                    }
                }
            }
            _ => Want::Refused,
        };
        check(&text, Plan::from_json(&text), &want);

        // The same numbers through the builder, on the plan parsed without
        // a budget: a window below the commit width is refused at
        // resolution, not parse.
        if numbers {
            let value = |i: usize| BUDGET_VALUES[i].parse::<f64>().unwrap() as u64;
            let budget = Budget { warmup: value(warmup), measure: value(measure) };
            let built = Plan::from_json(&format!("{{{body}}}")).map(|p| p.budget(budget));
            check(&format!("{text} (built)"), built, &want);
        }
    }
}
