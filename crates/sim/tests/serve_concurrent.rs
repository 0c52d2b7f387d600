//! Coalescing-correctness and cancellation tests for the concurrent serve
//! scheduler, driven in-process through `serve_with` (the piped-child
//! protocol tests live in the workspace-level `serve_roundtrip`).

use serde::json::Value;

use rcmc_sim::serve::{serve_with, ServeOpts};
use rcmc_sim::{ResultStore, Session};

fn temp_store(tag: &str) -> (std::path::PathBuf, ResultStore) {
    let dir = std::env::temp_dir().join(format!("rcmc-sconc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), ResultStore::at(dir))
}

/// Run a serve session over `input` with `jobs` workers on a fresh store,
/// returning the parsed response lines and the summary.
fn serve_on(store: ResultStore, jobs: usize, input: &str) -> (Vec<Value>, rcmc_sim::ServeSummary) {
    let session = Session::with_store(store).with_jobs(jobs);
    let mut out = Vec::new();
    let summary = serve_with(&session, input.as_bytes(), &mut out, &ServeOpts::default()).unwrap();
    let lines = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde::json::parse(l).expect("serve output must be JSON"))
        .collect();
    (lines, summary)
}

fn field<'a>(v: &'a Value, k: &str) -> &'a Value {
    v.get(k).unwrap_or_else(|| panic!("missing '{k}' in {v:?}"))
}

fn results_by_id<'a>(lines: &'a [Value], id: &str) -> &'a Value {
    lines
        .iter()
        .find(|l| {
            field(l, "event") == &Value::Str("result".into())
                && field(l, "id") == &Value::Str(id.into())
        })
        .unwrap_or_else(|| panic!("no result for id '{id}'"))
}

const PLAN: &str = "{\"name\": \"co\", \
    \"configs\": [{\"topology\": \"ring\", \"clusters\": 4}, {\"topology\": \"conv\", \"clusters\": 4}], \
    \"benches\": [\"swim\", \"gzip\"], \
    \"budget\": {\"warmup\": 1000, \"measure\": 4000}}";

#[test]
fn concurrent_identical_requests_coalesce_and_stay_bit_identical() {
    // Solo baseline: one request on a fresh store.
    let (solo_dir, solo_store) = temp_store("solo");
    let solo_input =
        format!("{{\"id\": \"s\", \"op\": \"run\", \"plan\": {PLAN}}}\n{{\"op\": \"shutdown\"}}\n");
    let (solo_lines, solo_summary) = serve_on(solo_store, 4, &solo_input);
    assert_eq!(solo_summary.stats.executed, 4, "solo run executes the grid");
    let solo_rows = field(results_by_id(&solo_lines, "s"), "rows").clone();

    // Two identical concurrent requests on another fresh store: exactly
    // the solo job count is simulated — every pair of the second request
    // is either coalesced onto the first's in-flight job or memoized from
    // the row it already persisted, never re-executed.
    let (pair_dir, pair_store) = temp_store("pair");
    let pair_input = format!(
        "{{\"id\": \"a\", \"op\": \"run\", \"plan\": {PLAN}}}\n\
         {{\"id\": \"b\", \"op\": \"run\", \"plan\": {PLAN}}}\n\
         {{\"op\": \"shutdown\"}}\n"
    );
    let (pair_lines, pair_summary) = serve_on(pair_store, 4, &pair_input);
    assert_eq!(pair_summary.runs, 2);
    assert_eq!(
        pair_summary.stats.executed, 4,
        "identical requests must not re-simulate: {:?}",
        pair_summary.stats
    );
    assert_eq!(pair_summary.stats.submitted, 8);
    assert_eq!(
        pair_summary.stats.coalesced + pair_summary.stats.memoized,
        4,
        "{:?}",
        pair_summary.stats
    );

    // Both subscribers got rows bit-identical to the solo run.
    for id in ["a", "b"] {
        assert_eq!(
            field(results_by_id(&pair_lines, id), "rows"),
            &solo_rows,
            "request '{id}' rows differ from the solo run"
        );
    }
    let _ = std::fs::remove_dir_all(solo_dir);
    let _ = std::fs::remove_dir_all(pair_dir);
}

#[test]
fn cancelled_requests_unstarted_jobs_never_run() {
    // One worker: "keep" occupies it while "drop"'s jobs are queued, so
    // the cancel lands before any of them starts.
    let (dir, store) = temp_store("cancel");
    let drop_plan = PLAN
        .replace("\"co\"", "\"dr\"")
        .replace("[\"swim\", \"gzip\"]", "[\"mcf\", \"twolf\"]");
    let input = format!(
        "{{\"id\": \"keep\", \"op\": \"run\", \"plan\": {PLAN}}}\n\
         {{\"id\": \"drop\", \"op\": \"run\", \"plan\": {drop_plan}}}\n\
         {{\"id\": \"c\", \"op\": \"cancel\", \"target\": \"drop\"}}\n\
         {{\"op\": \"shutdown\"}}\n"
    );
    let (lines, summary) = serve_on(store, 1, &input);
    let ack = lines
        .iter()
        .find(|l| field(l, "event") == &Value::Str("cancelled".into()))
        .expect("cancel acknowledged");
    assert_eq!(field(ack, "found"), &Value::Bool(true));
    assert_eq!(field(ack, "dropped"), &Value::Num(4.0));
    assert_eq!(summary.stats.cancelled, 4);
    // "keep" is unaffected; "drop" gets a terminal error and no result.
    let kept = results_by_id(&lines, "keep");
    let Value::Arr(rows) = field(kept, "rows") else {
        panic!("rows must be an array");
    };
    assert_eq!(rows.len(), 4);
    assert!(lines.iter().any(|l| {
        field(l, "event") == &Value::Str("error".into())
            && field(l, "id") == &Value::Str("drop".into())
            && l.get("reason") == Some(&Value::Str("cancelled".into()))
    }));
    assert!(!lines.iter().any(|l| {
        field(l, "event") == &Value::Str("result".into())
            && field(l, "id") == &Value::Str("drop".into())
    }));
    // Only "keep"'s four pairs ever simulated: executed counts them and
    // nothing else, and the store holds no mcf/twolf rows.
    assert_eq!(summary.stats.executed, 4, "{:?}", summary.stats);
    let _ = std::fs::remove_dir_all(dir);
}

/// Serve `input` on one worker over `store`, returning the raw response
/// lines (byte-exact, as a client reads them).
fn serve_raw(store: ResultStore, input: &str) -> Vec<String> {
    let session = Session::with_store(store).with_jobs(1);
    let mut out = Vec::new();
    serve_with(&session, input.as_bytes(), &mut out, &ServeOpts::default()).unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn keys(v: &Value) -> Vec<&str> {
    let Value::Obj(members) = v else {
        panic!("expected an object, got {v:?}")
    };
    members.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn serve_wire_format_is_pinned() {
    // One worker: "keep" occupies it while "drop"'s jobs sit queued, so
    // the event sequence is fixed and the cancel always lands.
    let (dir, _) = temp_store("wire");
    let keep = "{\"name\": \"pin\", \"configs\": [{\"name\": \"Ring_4clus_1bus_2IW\"}], \
                \"benches\": [\"swim\", \"gzip\"], \
                \"budget\": {\"warmup\": 1000, \"measure\": 4000}}";
    let drop_plan = PLAN
        .replace("\"co\"", "\"dr\"")
        .replace("[\"swim\", \"gzip\"]", "[\"mcf\", \"twolf\"]");
    let input = format!(
        "{{\"id\": \"keep\", \"op\": \"run\", \"plan\": {keep}}}\n\
         {{\"id\": \"drop\", \"op\": \"run\", \"plan\": {drop_plan}}}\n\
         {{\"id\": \"c\", \"op\": \"cancel\", \"target\": \"drop\"}}\n\
         {{\"op\": \"shutdown\"}}\n"
    );
    let lines = serve_raw(ResultStore::at(dir.clone()), &input);
    let of = |id: &str| -> Vec<&String> {
        let tag = format!("{{\"id\":\"{id}\",");
        lines.iter().filter(|l| l.starts_with(&tag)).collect()
    };
    assert_eq!(
        of("drop"),
        [
            "{\"id\":\"drop\",\"event\":\"error\",\"error\":\"request cancelled\",\
             \"reason\":\"cancelled\",\"plan\":\"dr\"}"
        ]
    );
    assert_eq!(
        of("c"),
        ["{\"id\":\"c\",\"event\":\"cancelled\",\"target\":\"drop\",\"found\":true,\"dropped\":4}"]
    );
    let kept = of("keep");
    assert_eq!(kept.len(), 3, "{lines:?}");
    assert_eq!(
        kept[0],
        "{\"id\":\"keep\",\"event\":\"progress\",\"finished\":1,\"total\":2,\"memoized\":0,\
         \"config\":\"Ring_4clus_1bus_2IW\",\"bench\":\"swim\",\"label\":\"pin#keep\"}"
    );
    assert_eq!(
        kept[1],
        "{\"id\":\"keep\",\"event\":\"progress\",\"finished\":2,\"total\":2,\"memoized\":0,\
         \"config\":\"Ring_4clus_1bus_2IW\",\"bench\":\"gzip\",\"label\":\"pin#keep\"}"
    );
    let result = serde::json::parse(kept[2]).unwrap();
    assert_eq!(
        keys(&result),
        ["id", "event", "plan", "rows", "reports", "stats"]
    );
    assert_eq!(field(&result, "event"), &Value::Str("result".into()));
    assert_eq!(field(&result, "reports"), &Value::Arr(Vec::new()));
    assert_eq!(
        field(&result, "stats").to_compact_string(),
        "{\"jobs\":2,\"executed\":2,\"coalesced\":0,\"memoized\":0}"
    );
    assert_eq!(
        lines.last().unwrap(),
        "{\"id\":\"auto-1\",\"event\":\"bye\"}"
    );

    // The same plan again on the warm store: one terminal progress event
    // with `total == 0`, then a result tallying every pair as memoized.
    let warm = serve_raw(
        ResultStore::at(dir.clone()),
        &format!(
            "{{\"id\": \"w\", \"op\": \"run\", \"plan\": {keep}}}\n{{\"op\": \"shutdown\"}}\n"
        ),
    );
    assert_eq!(warm.len(), 3, "{warm:?}");
    assert_eq!(
        warm[0],
        "{\"id\":\"w\",\"event\":\"progress\",\"finished\":0,\"total\":0,\"memoized\":2,\
         \"config\":\"\",\"bench\":\"\",\"label\":\"pin#w\"}"
    );
    let result = serde::json::parse(&warm[1]).unwrap();
    assert_eq!(
        keys(&result),
        ["id", "event", "plan", "rows", "reports", "stats"]
    );
    assert_eq!(
        field(&result, "stats").to_compact_string(),
        "{\"jobs\":2,\"executed\":0,\"coalesced\":0,\"memoized\":2}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
