//! A job whose imported trace does not decode fails that job, never the
//! process: every request subscribed to it ends with the failure, other
//! requests keep running, and no row is stored for it. A job streams its
//! file as the core fetches, so this holds for damage anywhere in the
//! file: the end-of-run check drains and checks what the window did not
//! read.

use std::path::{Path, PathBuf};

use rcmc_emu::{trace_program, TraceDb};
use rcmc_sim::runner::{Budget, ResultStore};
use rcmc_sim::serve::{serve_with, ServeOpts};
use rcmc_sim::{Plan, Session};
use rcmc_workloads::benchmark;
use serde::json::Value;

/// A trace store holding mcf's recording as `ext`, one payload byte
/// flipped and the header intact: it resolves, and then fails to decode.
fn damaged_store(tag: &str) -> (TraceDb, PathBuf) {
    damaged_recording(tag, 3_000, |bytes| *bytes.last_mut().unwrap() ^= 1)
}

/// A trace store holding the first `len` records of mcf as `ext`, its
/// file bytes passed through `damage` (the header left intact).
fn damaged_recording(
    tag: &str,
    len: usize,
    damage: impl FnOnce(&mut Vec<u8>),
) -> (TraceDb, PathBuf) {
    let dir = std::env::temp_dir().join(format!("rcmc-jobfail-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = TraceDb::at(dir.clone());
    let t = trace_program(&benchmark("mcf").unwrap().build(), len).unwrap();
    assert!(db.save("ext", len as u64, &t));
    let file = dir.join("ext.trc");
    let mut bytes = std::fs::read(&file).unwrap();
    damage(&mut bytes);
    std::fs::write(&file, &bytes).unwrap();
    assert!(
        db.open("ext").unwrap().is_some(),
        "the damaged file still resolves"
    );
    (db, dir)
}

/// The window every test here runs: far shorter than a 20k-record file.
fn window() -> Budget {
    Budget {
        warmup: 500,
        measure: 2_000,
    }
}

/// A 20,000-record recording whose last payload byte is flipped: the
/// damage lies past every record a 500 + 2,000 window reads, and past the
/// decoder's first 256 KiB window over the payload.
fn damaged_past_the_window(tag: &str) -> (TraceDb, PathBuf) {
    damaged_recording(tag, 20_000, |bytes| {
        assert!(bytes.len() > 256 * 1024 + 64, "{} bytes", bytes.len());
        *bytes.last_mut().unwrap() ^= 1;
    })
}

/// Byte offset of record `k` in a v2 trace file image named `ext`: walk
/// the control bytes from the payload start.
fn record_offset(bytes: &[u8], k: usize) -> usize {
    let mut off = (64 + "ext".len()).div_ceil(32) * 32;
    for _ in 0..k {
        off += 1 + bytes[off].count_ones() as usize * 8;
    }
    off
}

/// The plan of one Ring configuration over `benches` at [`window`].
fn plan_over(benches: &[&str]) -> Plan {
    Plan::new("bad")
        .config_named("Ring_4clus_1bus_2IW")
        .benches(benches.iter().copied())
        .budget(window())
}

/// A one-worker session over `db`, storing rows under `results`.
fn session(db: &TraceDb, results: &Path) -> Session {
    Session::with_store(ResultStore::at(results.to_path_buf()))
        .with_trace_store(db.clone())
        .with_jobs(1)
}

/// Row files under a result store.
fn rows_in(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.path() {
            p if p.is_dir() => rows_in(&p),
            p => usize::from(p.extension() == Some("json".as_ref())),
        })
        .sum()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("'{key}' is {other:?} in {v:?}"),
    }
}

/// `rcmc serve` at one worker, given a run over the damaged `ext` (and
/// swim), then a run of swim alone, then `stats` and `shutdown`: the
/// first request ends in one `failed` error naming `ext`, the second in
/// its result, `bye` comes last, and the one failed job is counted.
#[test]
fn serve_fails_the_damaged_request_and_keeps_serving() {
    let (db, dir) = damaged_store("serve");
    let results = dir.join("results");
    let session = Session::with_store(ResultStore::at(results.clone()))
        .with_trace_store(db)
        .with_jobs(1);
    let run = |id: u32, benches: &str| {
        format!(
            r#"{{"id": {id}, "op": "run", "plan": {{"name": "p{id}", "configs": [{{"name": "Ring_4clus_1bus_2IW"}}], "benches": [{benches}], "budget": {{"warmup": 500, "measure": 2000}}}}}}"#
        )
    };
    let input = [
        run(1, r#""ext", "swim""#),
        run(2, r#""swim""#),
        r#"{"id": 3, "op": "stats"}"#.to_string(),
        r#"{"op": "shutdown"}"#.to_string(),
    ]
    .join("\n");
    let mut out = Vec::new();
    let summary = serve_with(&session, input.as_bytes(), &mut out, &ServeOpts::default())
        .expect("serve survives a failed job");
    let lines: Vec<Value> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde::json::parse(l).expect("one JSON object per line"))
        .collect();
    // The events that end request `id`.
    let ends = |id: f64| -> Vec<&Value> {
        lines
            .iter()
            .filter(|l| l.get("id") == Some(&Value::Num(id)))
            .filter(|l| matches!(str_of(l, "event"), "result" | "error"))
            .collect()
    };

    let failed = ends(1.0);
    assert_eq!(failed.len(), 1, "{lines:?}");
    assert_eq!(str_of(failed[0], "event"), "error");
    assert_eq!(str_of(failed[0], "reason"), "failed");
    assert_eq!(str_of(failed[0], "bench"), "ext");
    assert_eq!(str_of(failed[0], "config"), "Ring_4clus_1bus_2IW");
    assert!(
        str_of(failed[0], "error").contains("imported trace 'ext': payload checksum mismatch"),
        "{:?}",
        failed[0]
    );
    let served = ends(2.0);
    assert_eq!(served.len(), 1, "{lines:?}");
    assert_eq!(str_of(served[0], "event"), "result");
    let stats = lines
        .iter()
        .find(|l| str_of(l, "event") == "stats")
        .expect("stats answered");
    assert!(
        stats
            .get("scheduler")
            .and_then(|s| s.get("failed"))
            .is_some(),
        "{stats:?}"
    );
    assert_eq!(str_of(lines.last().unwrap(), "event"), "bye");

    assert_eq!(summary.stats.failed, 1);
    assert_eq!(summary.stats.executed, 1, "swim ran once, for request 2");
    assert_eq!(rows_in(&results), 1, "only swim's row is stored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session run over the damaged trace returns the failure as its error
/// and stores no row, so running it again fails again.
#[test]
fn a_session_run_returns_the_failure() {
    let (db, dir) = damaged_store("session");
    let results = dir.join("results");
    let plan = Plan::new("bad")
        .config_named("Ring_4clus_1bus_2IW")
        .bench("ext")
        .budget(Budget {
            warmup: 500,
            measure: 2_000,
        });
    for attempt in 1..=2 {
        let err = Session::with_store(ResultStore::at(results.clone()))
            .with_trace_store(db.clone())
            .with_jobs(2)
            .run(&plan)
            .expect_err("a damaged trace fails the run");
        assert_eq!(
            err, "Ring_4clus_1bus_2IW × ext: imported trace 'ext': payload checksum mismatch",
            "run {attempt}"
        );
        assert_eq!(rows_in(&results), 0, "run {attempt} stored a row");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage past everything the window reads still fails a session run:
/// the end-of-run check drains the rest of the file and finds the
/// checksum mismatch, and no row is stored.
#[test]
fn damage_past_the_window_fails_the_session_run() {
    let (db, dir) = damaged_past_the_window("past-session");
    let results = dir.join("results");
    for attempt in 1..=2 {
        let err = session(&db, &results)
            .run(&plan_over(&["ext"]))
            .expect_err("damage past the window fails the run");
        assert_eq!(
            err, "Ring_4clus_1bus_2IW × ext: imported trace 'ext': payload checksum mismatch",
            "run {attempt}"
        );
        assert_eq!(rows_in(&results), 0, "run {attempt} stored a row");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same damage through `rcmc serve`: the request ends in one
/// `failed` error naming the trace, the next request is served, and only
/// its row is stored.
#[test]
fn damage_past_the_window_fails_the_serve_request() {
    let (db, dir) = damaged_past_the_window("past-serve");
    let results = dir.join("results");
    let run = |id: u32, bench: &str| {
        format!(
            r#"{{"id": {id}, "op": "run", "plan": {{"name": "p{id}", "configs": [{{"name": "Ring_4clus_1bus_2IW"}}], "benches": ["{bench}"], "budget": {{"warmup": 500, "measure": 2000}}}}}}"#
        )
    };
    let input = [
        run(1, "ext"),
        run(2, "swim"),
        r#"{"op": "shutdown"}"#.into(),
    ]
    .join("\n");
    let mut out = Vec::new();
    let summary = serve_with(
        &session(&db, &results),
        input.as_bytes(),
        &mut out,
        &ServeOpts::default(),
    )
    .expect("serve survives a failed job");
    let lines: Vec<Value> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde::json::parse(l).expect("one JSON object per line"))
        .collect();
    let end_of = |id: f64| -> Vec<&Value> {
        lines
            .iter()
            .filter(|l| l.get("id") == Some(&Value::Num(id)))
            .filter(|l| matches!(str_of(l, "event"), "result" | "error"))
            .collect()
    };
    let failed = end_of(1.0);
    assert_eq!(failed.len(), 1, "{lines:?}");
    assert_eq!(str_of(failed[0], "reason"), "failed");
    assert_eq!(
        str_of(failed[0], "error"),
        "imported trace 'ext': payload checksum mismatch"
    );
    let served = end_of(2.0);
    assert_eq!(served.len(), 1, "{lines:?}");
    assert_eq!(str_of(served[0], "event"), "result");
    assert_eq!(str_of(lines.last().unwrap(), "event"), "bye");
    assert_eq!(summary.stats.failed, 1);
    assert_eq!(rows_in(&results), 1, "only swim's row is stored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record inside the window that does not decode (a reserved bit set in
/// its control byte) fails the job with that record's index.
#[test]
fn a_bad_record_inside_the_window_fails_with_its_index() {
    let k = 1_234;
    let (db, dir) = damaged_recording("bad-record", 20_000, |bytes| {
        let at = record_offset(bytes, k);
        bytes[at] |= 0x80;
    });
    let results = dir.join("results");
    let err = session(&db, &results)
        .run(&plan_over(&["ext"]))
        .expect_err("a bad record fails the run");
    assert_eq!(
        err,
        format!("Ring_4clus_1bus_2IW × ext: imported trace 'ext': record {k} does not decode")
    );
    assert_eq!(rows_in(&results), 0);
    assert_eq!(
        db.verify("ext", 20_000).unwrap_err().to_string(),
        format!("record {k} does not decode"),
        "`trace verify` gives the file the same verdict"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
