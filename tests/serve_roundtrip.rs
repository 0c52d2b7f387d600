//! End-to-end `rcmc serve` round-trip over a real piped child process: the
//! JSON-lines protocol a long-lived external driver would speak.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// Spawn `rcmc serve` with extra CLI flags, feed it raw `input` bytes,
/// collect every response line until the process exits. Note EOF without a
/// `shutdown` op counts as a client disconnect (queued jobs are cancelled),
/// so sessions that want their runs completed must end with `shutdown`.
fn serve_session_args(args: &[&str], input: &[u8]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rcmc"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("failed to spawn rcmc serve");
    {
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(input).unwrap();
        // stdin drops here: the loop sees EOF after the last request.
    }
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    let status = child.wait().unwrap();
    assert!(status.success(), "rcmc serve exited with {status}");
    lines
}

/// [`serve_session_args`] against the default store with no extra flags.
fn serve_session_bytes(input: &[u8]) -> Vec<String> {
    serve_session_args(&[], input)
}

/// [`serve_session_bytes`] with one well-formed request per line.
fn serve_session(requests: &[&str]) -> Vec<String> {
    let mut input = Vec::new();
    for r in requests {
        writeln!(input, "{r}").unwrap();
    }
    serve_session_bytes(&input)
}

/// Minimal JSON field probe (the vendored serde lives in the library; here
/// a substring check on compact one-line objects is enough and keeps the
/// test independent of it).
fn has_field(line: &str, key: &str, value: &str) -> bool {
    line.contains(&format!("\"{key}\":{value}")) || line.contains(&format!("\"{key}\":\"{value}\""))
}

#[test]
fn ping_run_shutdown_round_trip() {
    let plan = r#"{"id": 42, "op": "run", "plan": {"name": "smoke", "configs": [{"topology": "ring", "clusters": 4}, {"topology": "conv", "clusters": 4}], "benches": ["swim"], "budget": {"warmup": 500, "measure": 2000}, "reports": [{"kind": "speedup", "pairs": [{"num": "Ring_4clus_1bus_2IW", "den": "Conv_4clus_1bus_2IW"}]}]}}"#;
    let lines = serve_session(&[r#"{"id": 1, "op": "ping"}"#, plan, r#"{"op": "shutdown"}"#]);
    assert!(
        lines.len() >= 3,
        "expected pong + result + bye at least, got {lines:?}"
    );
    // 1. pong, echoing the id and pinning the model version.
    assert!(has_field(&lines[0], "event", "pong"), "{}", lines[0]);
    assert!(has_field(&lines[0], "id", "1"), "{}", lines[0]);
    assert!(lines[0].contains("\"model_version\":5"), "{}", lines[0]);
    // 2. the run's responses all carry id 42; the last one is the result
    //    with rows for both configs and the rendered speedup report.
    let bye = &lines[lines.len() - 1];
    let result = &lines[lines.len() - 2];
    assert!(has_field(result, "event", "result"), "{result}");
    assert!(has_field(result, "id", "42"), "{result}");
    assert!(has_field(result, "plan", "smoke"), "{result}");
    assert!(result.contains("Ring_4clus_1bus_2IW"), "{result}");
    assert!(result.contains("Conv_4clus_1bus_2IW"), "{result}");
    assert!(result.contains("\"reports\":"), "{result}");
    for line in &lines[1..lines.len() - 2] {
        assert!(has_field(line, "event", "progress"), "{line}");
        assert!(has_field(line, "id", "42"), "{line}");
    }
    // 3. clean shutdown.
    assert!(has_field(bye, "event", "bye"), "{bye}");
}

#[test]
fn warm_session_memoizes_across_requests() {
    // The same plan twice in one serve session, against a fresh store so
    // the cold path is what runs: the second request must be satisfied
    // from the warm session (memoized or coalesced), with identical rows.
    let dir = std::env::temp_dir().join(format!("rcmc-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = r#"{"id": "a", "op": "run", "plan": {"name": "warm", "configs": [{"topology": "ring", "clusters": 4}], "benches": ["gzip"], "budget": {"warmup": 500, "measure": 2000}}}"#;
    let plan2 = plan.replace("\"id\": \"a\"", "\"id\": \"b\"");
    let input = format!("{plan}\n{plan2}\n{{\"op\": \"shutdown\"}}\n");
    let store = dir.to_str().unwrap();
    let lines = serve_session_args(&["--store", store], input.as_bytes());
    let _ = std::fs::remove_dir_all(&dir);
    let results: Vec<&String> = lines
        .iter()
        .filter(|l| has_field(l, "event", "result"))
        .collect();
    assert_eq!(
        results.len(),
        2,
        "both runs must produce a result: {lines:?}"
    );
    // Rows and reports must be identical; compare from the "rows" key up
    // to the per-request "stats", which differ (executed vs coalesced or
    // memoized).
    let rows = |s: &str| {
        let from = s.find("\"rows\":").expect("result has rows");
        let to = s.find("\"stats\":").expect("result has stats");
        s[from..to].to_string()
    };
    assert_eq!(
        rows(results[0]),
        rows(results[1]),
        "warm rerun changed the rows"
    );
    // And the second request enqueued no fresh jobs: whether it was
    // satisfied from the store (memoized) or coalesced onto the first
    // request's in-flight job, its per-request stats report `executed: 0`.
    let result_b = lines
        .iter()
        .find(|l| has_field(l, "event", "result") && has_field(l, "id", "b"))
        .expect("request b must produce a result");
    assert!(
        result_b.contains("\"executed\":0"),
        "second run simulated fresh jobs: {result_b}"
    );
}

#[test]
fn serve_survives_garbage_bytes_and_oversized_lines() {
    // A non-UTF-8 line, then a line past the 1 MiB request cap, then a
    // well-formed ping: each bad line gets a structured error and the
    // session keeps serving.
    let mut input: Vec<u8> = b"{\"op\": \"ping\", \"junk\": \"\xff\xfe\"}\n".to_vec();
    input.extend_from_slice(&vec![b'x'; (1 << 20) + 1]);
    input.push(b'\n');
    input.extend_from_slice(b"{\"id\": 3, \"op\": \"ping\"}\n");
    let lines = serve_session_bytes(&input);
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(has_field(&lines[0], "event", "error"), "{}", lines[0]);
    assert!(lines[0].contains("UTF-8"), "{}", lines[0]);
    assert!(has_field(&lines[1], "event", "error"), "{}", lines[1]);
    assert!(lines[1].contains("exceeds"), "{}", lines[1]);
    assert!(has_field(&lines[2], "event", "pong"), "{}", lines[2]);
    assert!(has_field(&lines[2], "id", "3"), "{}", lines[2]);
}

#[test]
fn cancel_drops_queued_jobs_without_touching_others() {
    // A fresh store and one worker: request "keep" occupies the worker
    // while "drop"'s four jobs sit queued; the cancel must drop all four
    // before any of them runs, and "keep" must still complete.
    let dir = std::env::temp_dir().join(format!("rcmc-serve-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let keep = r#"{"id": "keep", "op": "run", "plan": {"name": "k", "configs": [{"topology": "ring", "clusters": 4}, {"topology": "conv", "clusters": 4}], "benches": ["swim", "gzip"], "budget": {"warmup": 500, "measure": 2000}}}"#;
    let drop = r#"{"id": "drop", "op": "run", "plan": {"name": "d", "configs": [{"topology": "mesh", "clusters": 4}, {"topology": "hier", "clusters": 4}], "benches": ["swim", "gzip"], "budget": {"warmup": 500, "measure": 2000}}}"#;
    let cancel = r#"{"id": "c", "op": "cancel", "target": "drop"}"#;
    let mut input = Vec::new();
    for r in [keep, drop, cancel, r#"{"op": "shutdown"}"#] {
        writeln!(input, "{r}").unwrap();
    }
    let lines = serve_session_args(&["--jobs", "1", "--store", dir.to_str().unwrap()], &input);
    // The cancel round-trip: found the live request, dropped its 4 jobs.
    let ack = lines
        .iter()
        .find(|l| has_field(l, "event", "cancelled"))
        .expect("cancel must be acknowledged");
    assert!(has_field(ack, "id", "c"), "{ack}");
    assert!(has_field(ack, "target", "drop"), "{ack}");
    assert!(has_field(ack, "found", "true"), "{ack}");
    assert!(has_field(ack, "dropped", "4"), "{ack}");
    // The cancelled request gets one terminal error and never a result.
    assert!(
        lines.iter().any(|l| has_field(l, "event", "error")
            && has_field(l, "id", "drop")
            && has_field(l, "reason", "cancelled")),
        "cancelled request must get a terminal error: {lines:?}"
    );
    assert!(
        !lines
            .iter()
            .any(|l| has_field(l, "event", "result") && has_field(l, "id", "drop")),
        "cancelled request must not produce a result: {lines:?}"
    );
    // The other request is unaffected: full result, all four rows.
    let kept = lines
        .iter()
        .find(|l| has_field(l, "event", "result") && has_field(l, "id", "keep"))
        .expect("keep must complete");
    assert!(kept.contains("Ring_4clus_1bus_2IW"), "{kept}");
    assert!(kept.contains("Conv_4clus_1bus_2IW"), "{kept}");
    // And none of the cancelled jobs ever ran: the store has no shard for
    // either of "drop"'s configurations.
    assert!(
        !dir.join("Mesh_4clus_1bus_2IW").exists() && !dir.join("Hier_4clus_1bus_2IW").exists(),
        "cancelled jobs must never simulate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_disconnect_cancels_queued_jobs() {
    // Eight jobs, one worker, and stdin closed right after the request:
    // the EOF counts as a disconnect, so queued jobs are dropped (at most
    // the one already-running job finishes into the store) and the child
    // exits instead of grinding through the whole plan.
    let dir = std::env::temp_dir().join(format!("rcmc-serve-eof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = r#"{"id": "gone", "op": "run", "plan": {"name": "g", "configs": [{"topology": "ring", "clusters": 4}, {"topology": "conv", "clusters": 4}], "benches": ["swim", "gzip", "mcf", "twolf"], "budget": {"warmup": 500, "measure": 2000}}}"#;
    let lines = serve_session_args(
        &["--jobs", "1", "--store", dir.to_str().unwrap()],
        format!("{run}\n").as_bytes(),
    );
    // The disconnect surfaces as the cancel path's terminal error.
    assert!(
        lines.iter().any(|l| has_field(l, "event", "error")
            && has_field(l, "id", "gone")
            && has_field(l, "reason", "cancelled")),
        "EOF must cancel the in-flight request: {lines:?}"
    );
    assert!(
        !lines.iter().any(|l| has_field(l, "event", "result")),
        "no result after a disconnect: {lines:?}"
    );
    // At most the job the worker had already started persisted a row.
    let mut persisted = 0;
    if let Ok(shards) = std::fs::read_dir(&dir) {
        for shard in shards.flatten() {
            persisted += std::fs::read_dir(shard.path()).map_or(0, |d| d.count());
        }
    }
    assert!(
        persisted <= 2,
        "queued jobs ran after disconnect: {persisted} rows persisted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_reports_errors_and_keeps_going() {
    let lines = serve_session(&[
        r#"{"id": 1, "op": "run", "plan": {"name": "x", "configs": [{"name": "Bogus_Config"}]}}"#,
        r#"{"id": 2, "op": "ping"}"#,
    ]);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(has_field(&lines[0], "event", "error"), "{}", lines[0]);
    assert!(lines[0].contains("Bogus_Config"), "{}", lines[0]);
    assert!(has_field(&lines[1], "event", "pong"), "{}", lines[1]);
}
