//! `rcmc serve` — a long-lived, concurrent JSON-lines request loop.
//!
//! One request per input line, one or more response lines per request, all
//! JSON objects. A single warm [`Session`] is shared across requests, so
//! every plan after the first benefits from the memoized result store,
//! and requests share the oracle traces the workers hold (each idle
//! worker keeps at most the trace of its last job) — and requests execute
//! *concurrently*: the reader thread only parses and submits, a
//! [`Scheduler`] fans each plan's jobs onto the session's worker pool, and
//! identical `(config, bench, budget)` jobs from different requests are
//! coalesced into one simulation (see the [`crate::scheduler`] docs for
//! coalescing, cancellation and admission-control semantics). The wire
//! format lives here: each request's scheduler [`Sink`] turns progress,
//! results and cancellation into the JSON events below.
//!
//! Requests (`id` is echoed back verbatim on every response for that
//! request; requests without an `id` get an auto-assigned `"auto-N"`):
//!
//! ```json
//! {"id": 1, "op": "ping"}
//! {"id": 2, "op": "list"}
//! {"id": 3, "op": "run", "plan": "main"}
//! {"id": 4, "op": "run", "plan": {"name": "q", "configs": [{"group": "topology"}]}}
//! {"id": 5, "op": "cancel", "target": 3}
//! {"id": 6, "op": "stats"}
//! {"op": "shutdown"}
//! ```
//!
//! Responses carry an `"event"` discriminator: `pong`, `listing`,
//! `progress` (streamed per executed job, interleaved across in-flight
//! requests — demux on `id`), `result` (rows + rendered reports),
//! `cancelled`, `stats` (`scheduler` counters, and `trace_cache`: `bytes`
//! and `live` traces held now, `built`/`db_hits` over the process
//! lifetime), `error`, `bye`. Every event carries the originating request
//! `id`.
//!
//! Malformed JSON gets an `error` event and the loop keeps reading. A
//! broken *frame* — non-UTF-8 bytes or an over-long line (see
//! [`MAX_REQUEST_LINE`]) — additionally cancels every in-flight request's
//! queued jobs: after a mangled frame the stream may be desynchronized,
//! and half-understood requests must not keep burning workers. Client EOF
//! without a `shutdown` op is treated as a disconnect the same way:
//! queued-but-unstarted jobs are dropped, running jobs finish and still
//! populate the store. A `shutdown` op is the graceful path — submitted
//! requests drain to completion before the final `bye`.

use std::io::{BufRead, Write};
use std::sync::Mutex;

use serde::json::Value;
use serde::Serialize as _;

use crate::experiments::plans;
use crate::plan::Plan;
use crate::resultset::ResultSet;
use crate::runner::{SweepProgress, MODEL_VERSION};
use crate::scheduler::{RunRequest, Scheduler, SchedulerStats, Sink, Submission, Tally};
use crate::session::{Progress, Session};
use crate::{config, runner};

/// Writes one event line. Returns `false` when the client is gone (write
/// failed).
type EmitFn<'a> = &'a (dyn Fn(&Value) -> bool + Sync);

/// Counters of one serve loop's lifetime (returned at EOF/shutdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests handled (including failed ones).
    pub requests: usize,
    /// Plans accepted by the scheduler.
    pub runs: usize,
    /// Final scheduler counters (coalescing, cancellation, admission).
    pub stats: SchedulerStats,
}

/// Tuning knobs for [`serve_with`].
#[derive(Clone, Copy, Debug)]
pub struct ServeOpts {
    /// Max queued (accepted but unstarted) jobs before new `run` requests
    /// get a `busy` error. See [`Scheduler::submit`].
    pub queue_limit: usize,
}

/// Default bound on queued jobs ([`ServeOpts::queue_limit`]).
pub const DEFAULT_QUEUE_LIMIT: usize = 4096;

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            queue_limit: DEFAULT_QUEUE_LIMIT,
        }
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn event(id: &Value, kind: &str, mut fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("id", id.clone()), ("event", Value::Str(kind.to_string()))];
    all.append(&mut fields);
    obj(all)
}

/// Write one response line; `false` means the client is gone (broken
/// pipe), which callers surface to the scheduler as a disconnect.
fn write_line<W: Write>(out: &Mutex<W>, v: &Value) -> bool {
    let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
    writeln!(w, "{}", v.to_compact_string()).is_ok() && w.flush().is_ok()
}

/// Resolve the request's `"plan"` field: a string names a builtin plan, an
/// object is a full inline spec.
fn plan_of(req: &Value) -> Result<Plan, String> {
    match req.get("plan") {
        Some(Value::Str(name)) => plans::builtin(name).ok_or_else(|| {
            format!(
                "unknown builtin plan '{name}' (one of: {})",
                plans::BUILTIN.join(" | ")
            )
        }),
        Some(spec @ Value::Obj(_)) => Plan::from_value_checked(spec),
        Some(_) => Err("'plan' must be a builtin name or a spec object".to_string()),
        None => Err("'run' request needs a 'plan'".to_string()),
    }
}

/// JSON rendering of the process-wide trace cache: the traces workers hold
/// right now and the lifetime build/decode counters (the `stats` event).
fn trace_cache_value() -> Value {
    let t = runner::trace_cache_stats();
    obj(vec![
        ("bytes", Value::Num(t.bytes as f64)),
        ("live", Value::Num(t.live as f64)),
        ("built", Value::Num(t.built as f64)),
        ("db_hits", Value::Num(t.db_hits as f64)),
    ])
}

/// JSON rendering of the scheduler counters (the `stats` event).
fn stats_value(s: &SchedulerStats) -> Value {
    obj(vec![
        ("submitted", Value::Num(s.submitted as f64)),
        ("executed", Value::Num(s.executed as f64)),
        ("coalesced", Value::Num(s.coalesced as f64)),
        ("memoized", Value::Num(s.memoized as f64)),
        ("cancelled", Value::Num(s.cancelled as f64)),
        ("rejected", Value::Num(s.rejected as f64)),
        ("coalesce_hit_rate", Value::Num(s.coalesce_hit_rate())),
    ])
}

/// One `run` request's view of the wire: the scheduler's deliveries become
/// `progress`, `result` and cancelled-`error` events tagged with the
/// request id (progress optionally mirrored to the stderr status line).
struct ServeSink<'a> {
    id: Value,
    /// The plan, kept for rendering reports once all rows are in.
    plan: Plan,
    /// Display-name configuration order reports render in.
    order: Vec<String>,
    write: EmitFn<'a>,
    stderr: bool,
}

impl Sink for ServeSink<'_> {
    fn progress(&self, p: &SweepProgress<'_>) -> bool {
        let sent = (self.write)(&event(
            &self.id,
            "progress",
            vec![
                ("finished", Value::Num(p.finished as f64)),
                ("total", Value::Num(p.total as f64)),
                ("memoized", Value::Num(p.memoized as f64)),
                ("config", Value::Str(p.config.to_string())),
                ("bench", Value::Str(p.bench.to_string())),
                ("label", Value::Str(p.label.to_string())),
            ],
        ));
        if self.stderr {
            p.eprint_status();
        }
        sent
    }

    fn done(&self, rs: ResultSet, tally: Tally) -> bool {
        (self.write)(&result_event(&self.id, &self.plan, &self.order, &rs, tally))
    }

    fn cancelled(&self) -> bool {
        (self.write)(&event(
            &self.id,
            "error",
            vec![
                ("error", Value::Str("request cancelled".into())),
                ("reason", Value::Str("cancelled".into())),
                ("plan", Value::Str(self.plan.name.clone())),
            ],
        ))
    }
}

/// `plan#id` — the stable per-request tag progress events carry.
fn request_label(plan_name: &str, id: &Value) -> String {
    let id_s = match id {
        Value::Str(s) => s.clone(),
        other => other.to_compact_string(),
    };
    format!("{plan_name}#{id_s}")
}

/// Parse, resolve and submit one `run` request. Errors go out through
/// `emit`; the request's own events through `write`. Returns whether the
/// scheduler accepted it.
fn run_request<'a>(
    session: &Session,
    sched: &Scheduler<'a>,
    id: &Value,
    req: &Value,
    emit: EmitFn<'_>,
    write: EmitFn<'a>,
) -> bool {
    let plan = match plan_of(req) {
        Ok(p) => p,
        Err(e) => {
            emit(&event(id, "error", vec![("error", Value::Str(e))]));
            return false;
        }
    };
    // Resolve up front: rejects bad plans before any simulation and yields
    // the configuration order the result's reports render in. The session's
    // trace store is consulted so imported traces are servable workloads.
    let (cfgs, benches) = match plan.resolve_in(session.trace_db()) {
        Ok(r) => r,
        Err(e) => {
            emit(&event(id, "error", vec![("error", Value::Str(e))]));
            return false;
        }
    };
    let run = RunRequest {
        id: id.clone(),
        label: request_label(&plan.name, id),
        benches,
        budget: plan.budget.unwrap_or_default(),
        sink: Box::new(ServeSink {
            id: id.clone(),
            order: cfgs.iter().map(|c| c.name.clone()).collect(),
            plan,
            write,
            stderr: matches!(session.progress(), Progress::Stderr),
        }),
        cfgs,
    };
    match sched.submit(run, session.store()) {
        Submission::Accepted => true,
        Submission::Busy {
            jobs,
            queued,
            limit,
        } => {
            emit(&event(
                id,
                "error",
                vec![
                    (
                        "error",
                        Value::Str(format!(
                            "scheduler busy: request needs {jobs} jobs but {queued} of {limit} queue slots are taken"
                        )),
                    ),
                    ("reason", Value::Str("busy".into())),
                    ("jobs", Value::Num(jobs as f64)),
                    ("queued", Value::Num(queued as f64)),
                    ("limit", Value::Num(limit as f64)),
                ],
            ));
            false
        }
    }
}

/// The `result` event: rows + rendered reports + per-request scheduler
/// stats (`jobs`/`executed`/`coalesced`/`memoized`).
fn result_event(id: &Value, plan: &Plan, order: &[String], rs: &ResultSet, tally: Tally) -> Value {
    let rows = Value::Arr(rs.rows().iter().map(|r| r.to_value()).collect());
    // "reports" stays an array in every outcome so clients can rely on the
    // shape; a render failure (impossible for specs that passed resolve(),
    // defensive only) is reported in a separate field.
    let mut render_error = None;
    let reports = match plan.render_reports_for(rs, order) {
        Ok(rendered) => Value::Arr(
            rendered
                .into_iter()
                .map(|r| {
                    obj(vec![
                        ("kind", Value::Str(r.kind)),
                        ("text", Value::Str(r.text)),
                    ])
                })
                .collect(),
        ),
        Err(e) => {
            render_error = Some(e);
            Value::Arr(Vec::new())
        }
    };
    let stats = obj(vec![
        ("jobs", Value::Num(tally.jobs as f64)),
        ("executed", Value::Num(tally.executed as f64)),
        ("coalesced", Value::Num(tally.coalesced as f64)),
        ("memoized", Value::Num(tally.memoized as f64)),
    ]);
    let mut fields = vec![
        ("plan", Value::Str(plan.name.clone())),
        ("rows", rows),
        ("reports", reports),
        ("stats", stats),
    ];
    if let Some(e) = render_error {
        fields.push(("report_error", Value::Str(e)));
    }
    event(id, "result", fields)
}

fn listing_event(id: &Value) -> Value {
    let strs = |it: Vec<String>| Value::Arr(it.into_iter().map(Value::Str).collect());
    event(
        id,
        "listing",
        vec![
            (
                "plans",
                strs(plans::BUILTIN.iter().map(|s| s.to_string()).collect()),
            ),
            (
                "configs",
                strs(
                    config::known_configs()
                        .iter()
                        .map(|c| c.name.clone())
                        .collect(),
                ),
            ),
            (
                "benches",
                strs(
                    runner::all_bench_names()
                        .into_iter()
                        .map(|b| b.to_string())
                        .collect(),
                ),
            ),
        ],
    )
}

/// Longest accepted request line in bytes (newline excluded). Longer lines
/// are drained — never buffered whole — and answered with an `error`
/// event, so one runaway writer cannot balloon the process or end the
/// session.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// One request line read from the input.
enum Line {
    /// A complete line (newline stripped) within the cap.
    Full(Vec<u8>),
    /// The line exceeded [`MAX_REQUEST_LINE`] and was drained.
    TooLong,
    /// End of input.
    Eof,
}

/// Read one newline-terminated line of at most [`MAX_REQUEST_LINE`] bytes.
/// Over-long lines are consumed chunk by chunk without retaining them.
/// A final unterminated line still counts as a line.
fn read_line_capped<R: BufRead>(input: &mut R) -> std::io::Result<Line> {
    let mut buf: Vec<u8> = Vec::new();
    let mut over = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(match (over, buf.is_empty()) {
                (true, _) => Line::TooLong,
                (false, true) => Line::Eof,
                (false, false) => Line::Full(buf),
            });
        }
        if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            if over || buf.len() + nl > MAX_REQUEST_LINE {
                over = true;
            } else {
                buf.extend_from_slice(&chunk[..nl]);
            }
            input.consume(nl + 1);
            return Ok(if over { Line::TooLong } else { Line::Full(buf) });
        }
        let n = chunk.len();
        if over || buf.len() + n > MAX_REQUEST_LINE {
            over = true;
            buf = Vec::new();
        } else {
            buf.extend_from_slice(chunk);
        }
        input.consume(n);
    }
}

/// Run the serve loop with default [`ServeOpts`]. See [`serve_with`].
pub fn serve<R: BufRead, W: Write + Send>(
    session: &Session,
    input: R,
    output: W,
) -> std::io::Result<ServeSummary> {
    serve_with(session, input, output, &ServeOpts::default())
}

/// Run the serve loop: read JSON-lines requests from `input`, stream
/// responses to `output`, sharing `session` across requests, until EOF or
/// a `shutdown` request.
///
/// The reader runs on the calling thread; `session.jobs()` scheduler
/// workers run on the session's pool, so in-flight requests execute
/// concurrently and `progress` events from different requests interleave
/// (each tagged with its request `id`). On `shutdown` the queue drains
/// before the final `bye`; on EOF or a broken output pipe queued jobs are
/// cancelled (running ones finish into the store) and the loop exits
/// without a `bye`.
pub fn serve_with<R: BufRead, W: Write + Send>(
    session: &Session,
    mut input: R,
    output: W,
    opts: &ServeOpts,
) -> std::io::Result<ServeSummary> {
    let out = Mutex::new(output);
    // Request sinks write directly (the scheduler notes their failures);
    // the reader's own events note a failed write here.
    let write_impl = |v: &Value| write_line(&out, v);
    let write: EmitFn<'_> = &write_impl;
    let sched = Scheduler::new(opts.queue_limit);
    let emit_impl = |v: &Value| -> bool {
        if write(v) {
            true
        } else {
            sched.note_disconnect();
            false
        }
    };
    let emit: EmitFn<'_> = &emit_impl;
    let mut summary = ServeSummary::default();
    let shutdown_id = {
        let sched = &sched;
        session.pool().scope(|s| {
            for _ in 0..session.jobs() {
                s.spawn(move || sched.worker(session.store(), session.trace_db()));
            }
            let r = read_requests(session, sched, &mut input, emit, write, &mut summary);
            // Whatever ended the read loop, stop the workers: they drain
            // the (possibly purged) queue and exit, and `scope` joins
            // them before returning.
            sched.close();
            r
        })?
    };
    summary.stats = sched.stats();
    if let Some(id) = shutdown_id {
        // Emitted after the scope join: every in-flight request has
        // delivered its result, so `bye` is always the last event.
        emit(&event(&id, "bye", vec![]));
    }
    Ok(summary)
}

/// The reader: parse one request per line and dispatch. Returns the
/// `shutdown` request's id, or `None` when the input ended first.
fn read_requests<'a, R: BufRead>(
    session: &Session,
    sched: &Scheduler<'a>,
    input: &mut R,
    emit: EmitFn<'_>,
    write: EmitFn<'a>,
    summary: &mut ServeSummary,
) -> std::io::Result<Option<Value>> {
    let mut auto = 0usize;
    let mut auto_id = move || {
        auto += 1;
        Value::Str(format!("auto-{auto}"))
    };
    loop {
        // A failed write already purged the scheduler; stop reading too.
        if sched.is_disconnected() {
            return Ok(None);
        }
        let line = match read_line_capped(input)? {
            Line::Eof => {
                // Client went away without `shutdown`: drop its queued
                // jobs rather than leak them into the scheduler.
                sched.cancel_all();
                return Ok(None);
            }
            Line::TooLong => {
                summary.requests += 1;
                emit(&event(
                    &auto_id(),
                    "error",
                    vec![(
                        "error",
                        Value::Str(format!("request line exceeds {MAX_REQUEST_LINE} bytes")),
                    )],
                ));
                // A mangled frame may have swallowed request boundaries;
                // don't keep burning workers for half-understood input.
                sched.cancel_all();
                continue;
            }
            Line::Full(bytes) => match String::from_utf8(bytes) {
                Ok(s) => s,
                Err(_) => {
                    summary.requests += 1;
                    emit(&event(
                        &auto_id(),
                        "error",
                        vec![(
                            "error",
                            Value::Str("request line is not valid UTF-8".into()),
                        )],
                    ));
                    sched.cancel_all();
                    continue;
                }
            },
        };
        if line.trim().is_empty() {
            continue;
        }
        summary.requests += 1;
        let Some(req) = serde::json::parse(&line) else {
            emit(&event(
                &auto_id(),
                "error",
                vec![("error", Value::Str("request is not valid JSON".into()))],
            ));
            continue;
        };
        let id = match req.get("id") {
            Some(v) => v.clone(),
            None => auto_id(),
        };
        let op = match req.get("op") {
            Some(Value::Str(op)) => op.clone(),
            _ => {
                emit(&event(
                    &id,
                    "error",
                    vec![(
                        "error",
                        Value::Str(
                            "request needs an 'op' string (ping | list | run | cancel | stats | shutdown)"
                                .into(),
                        ),
                    )],
                ));
                continue;
            }
        };
        match op.as_str() {
            "ping" => {
                emit(&event(
                    &id,
                    "pong",
                    vec![("model_version", Value::Num(MODEL_VERSION as f64))],
                ));
            }
            "list" => {
                emit(&listing_event(&id));
            }
            "stats" => {
                emit(&event(
                    &id,
                    "stats",
                    vec![
                        ("scheduler", stats_value(&sched.stats())),
                        ("trace_cache", trace_cache_value()),
                    ],
                ));
            }
            "run" => {
                if run_request(session, sched, &id, &req, emit, write) {
                    summary.runs += 1;
                }
            }
            "cancel" => match req.get("target") {
                Some(target) => {
                    let (found, dropped) = sched.cancel(target);
                    emit(&event(
                        &id,
                        "cancelled",
                        vec![
                            ("target", target.clone()),
                            ("found", Value::Bool(found)),
                            ("dropped", Value::Num(dropped as f64)),
                        ],
                    ));
                }
                None => {
                    emit(&event(
                        &id,
                        "error",
                        vec![(
                            "error",
                            Value::Str("'cancel' needs a 'target' request id".into()),
                        )],
                    ));
                }
            },
            "shutdown" => return Ok(Some(id)),
            other => {
                emit(&event(
                    &id,
                    "error",
                    vec![("error", Value::Str(format!("unknown op '{other}'")))],
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_lines(input: &str) -> (Vec<Value>, ServeSummary) {
        let session = Session::ephemeral().with_jobs(2);
        let mut out = Vec::new();
        let summary = serve(&session, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines = text
            .lines()
            .map(|l| serde::json::parse(l).expect("response line must be valid JSON"))
            .collect();
        (lines, summary)
    }

    fn field<'a>(v: &'a Value, k: &str) -> &'a Value {
        v.get(k).unwrap_or_else(|| panic!("missing '{k}' in {v:?}"))
    }

    #[test]
    fn capped_reader_handles_boundaries() {
        // Exactly at the cap: accepted. Small BufReader capacity forces the
        // chunk-spanning paths.
        let mut data = vec![b'a'; MAX_REQUEST_LINE];
        data.push(b'\n');
        data.extend_from_slice(b"tail"); // unterminated final line
        let mut r = std::io::BufReader::with_capacity(13, data.as_slice());
        match read_line_capped(&mut r).unwrap() {
            Line::Full(v) => assert_eq!(v.len(), MAX_REQUEST_LINE),
            _ => panic!("exact-cap line must be accepted"),
        }
        match read_line_capped(&mut r).unwrap() {
            Line::Full(v) => assert_eq!(v, b"tail"),
            _ => panic!("unterminated final line still counts"),
        }
        assert!(matches!(read_line_capped(&mut r).unwrap(), Line::Eof));
        // One byte over: drained without being retained, next line intact.
        let mut data = vec![b'b'; MAX_REQUEST_LINE + 1];
        data.push(b'\n');
        data.extend_from_slice(b"{next}\n");
        let mut r = std::io::BufReader::with_capacity(13, data.as_slice());
        assert!(matches!(read_line_capped(&mut r).unwrap(), Line::TooLong));
        match read_line_capped(&mut r).unwrap() {
            Line::Full(v) => assert_eq!(v, b"{next}"),
            _ => panic!("line after an over-long one must parse"),
        }
    }

    #[test]
    fn bad_bytes_and_oversized_lines_get_error_events() {
        let session = Session::ephemeral().with_jobs(1);
        let mut input: Vec<u8> = b"{\"op\": \"bad \xff utf8\"}\n".to_vec();
        input.extend_from_slice(&vec![b'{'; MAX_REQUEST_LINE + 1]);
        input.push(b'\n');
        input.extend_from_slice(b"{\"id\": 9, \"op\": \"ping\"}\n");
        let mut out = Vec::new();
        let summary = serve(
            &session,
            std::io::BufReader::with_capacity(16, input.as_slice()),
            &mut out,
        )
        .unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.runs, 0);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde::json::parse(l).expect("response must be valid JSON"))
            .collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(field(&lines[0], "event"), &Value::Str("error".into()));
        assert!(matches!(field(&lines[0], "error"), Value::Str(s) if s.contains("UTF-8")));
        // Malformed frames get auto-assigned ids so clients can still demux.
        assert_eq!(field(&lines[0], "id"), &Value::Str("auto-1".into()));
        assert_eq!(field(&lines[1], "event"), &Value::Str("error".into()));
        assert!(matches!(field(&lines[1], "error"), Value::Str(s) if s.contains("exceeds")));
        // The loop survived both bad lines: the ping still answers.
        assert_eq!(field(&lines[2], "event"), &Value::Str("pong".into()));
        assert_eq!(field(&lines[2], "id"), &Value::Num(9.0));
    }

    #[test]
    fn ping_list_and_shutdown() {
        let (lines, summary) = serve_lines(
            "{\"id\": 7, \"op\": \"ping\"}\n{\"op\": \"list\"}\n{\"op\": \"shutdown\"}\n",
        );
        assert_eq!(
            summary,
            ServeSummary {
                requests: 3,
                runs: 0,
                stats: SchedulerStats::default(),
            }
        );
        assert_eq!(field(&lines[0], "event"), &Value::Str("pong".into()));
        assert_eq!(field(&lines[0], "id"), &Value::Num(7.0));
        assert_eq!(
            field(&lines[0], "model_version"),
            &Value::Num(MODEL_VERSION as f64)
        );
        assert_eq!(field(&lines[1], "event"), &Value::Str("listing".into()));
        // The id-less `list` got an auto-assigned id.
        assert_eq!(field(&lines[1], "id"), &Value::Str("auto-1".into()));
        let Value::Arr(benches) = field(&lines[1], "benches") else {
            panic!("benches must be an array");
        };
        assert_eq!(benches.len(), 26);
        assert_eq!(field(&lines[2], "event"), &Value::Str("bye".into()));
    }

    #[test]
    fn run_streams_progress_then_result() {
        let req = "{\"id\": \"r1\", \"op\": \"run\", \"plan\": {\
                    \"name\": \"t\", \
                    \"configs\": [{\"topology\": \"ring\", \"clusters\": 4}, {\"topology\": \"conv\", \"clusters\": 4}], \
                    \"benches\": [\"swim\", \"gzip\"], \
                    \"budget\": {\"warmup\": 1000, \"measure\": 4000}, \
                    \"reports\": [{\"kind\": \"speedup\", \"pairs\": [{\"num\": \"Ring_4clus_1bus_2IW\", \"den\": \"Conv_4clus_1bus_2IW\"}]}]}}\n\
                    {\"op\": \"shutdown\"}\n";
        let (lines, summary) = serve_lines(req);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.stats.executed, 4);
        assert_eq!(summary.stats.submitted, 4);
        // 4 progress events (2 configs × 2 benches, nothing memoized in an
        // ephemeral store), one result, then the bye.
        let events: Vec<&Value> = lines.iter().map(|l| field(l, "event")).collect();
        assert_eq!(
            events
                .iter()
                .filter(|e| **e == &Value::Str("progress".into()))
                .count(),
            4
        );
        assert_eq!(events.last().unwrap(), &&Value::Str("bye".into()));
        let result = &lines[lines.len() - 2];
        assert_eq!(field(result, "event"), &Value::Str("result".into()));
        assert_eq!(field(result, "id"), &Value::Str("r1".into()));
        let Value::Arr(rows) = field(result, "rows") else {
            panic!("rows must be an array")
        };
        assert_eq!(rows.len(), 4);
        let Value::Arr(reports) = field(result, "reports") else {
            panic!("reports must be an array")
        };
        assert_eq!(reports.len(), 1);
        let Value::Str(text) = field(&reports[0], "text") else {
            panic!()
        };
        assert!(text.contains("Ring_4clus_1bus_2IW / Conv_4clus_1bus_2IW"));
        // Per-request scheduler stats ride on the result.
        let stats = field(result, "stats");
        assert_eq!(field(stats, "jobs"), &Value::Num(4.0));
        assert_eq!(field(stats, "executed"), &Value::Num(4.0));
        assert_eq!(field(stats, "coalesced"), &Value::Num(0.0));
        // Every progress event carries the request id and its label.
        for l in &lines[..lines.len() - 2] {
            if field(l, "event") == &Value::Str("progress".into()) {
                assert_eq!(field(l, "id"), &Value::Str("r1".into()));
                assert_eq!(field(l, "label"), &Value::Str("t#r1".into()));
            }
        }
    }

    #[test]
    fn errors_do_not_kill_the_loop() {
        let input = "not json\n\
                     {\"op\": \"frobnicate\"}\n\
                     {\"op\": \"run\", \"plan\": \"no-such-plan\"}\n\
                     {\"op\": \"run\", \"plan\": {\"name\": \"x\", \"configs\": [{\"name\": \"Bogus\"}]}}\n\
                     {\"id\": 1, \"op\": \"ping\"}\n";
        let (lines, summary) = serve_lines(input);
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.runs, 0);
        assert_eq!(lines.len(), 5);
        for l in &lines[..4] {
            assert_eq!(field(l, "event"), &Value::Str("error".into()));
        }
        assert_eq!(field(&lines[4], "event"), &Value::Str("pong".into()));
    }

    #[test]
    fn builtin_plan_by_name_runs() {
        // "main" with the full suite would be slow; check the name resolves
        // and a scoped inline spec using a group runs end to end.
        let req = "{\"op\": \"run\", \"plan\": {\"name\": \"quick\", \
                    \"configs\": [{\"name\": \"Ring_4clus_1bus_2IW\"}], \
                    \"benches\": [\"swim\"], \
                    \"budget\": {\"warmup\": 1000, \"measure\": 4000}}}\n\
                   {\"op\": \"shutdown\"}\n";
        let (lines, summary) = serve_lines(req);
        assert_eq!(summary.runs, 1);
        let result = &lines[lines.len() - 2];
        assert_eq!(field(result, "event"), &Value::Str("result".into()));
        assert_eq!(field(result, "plan"), &Value::Str("quick".into()));
    }

    #[test]
    fn cancel_unknown_target_reports_not_found() {
        let input = "{\"id\": 1, \"op\": \"cancel\", \"target\": \"ghost\"}\n\
                     {\"id\": 2, \"op\": \"cancel\"}\n\
                     {\"id\": 3, \"op\": \"stats\"}\n\
                     {\"op\": \"shutdown\"}\n";
        let (lines, summary) = serve_lines(input);
        assert_eq!(summary.requests, 4);
        assert_eq!(field(&lines[0], "event"), &Value::Str("cancelled".into()));
        assert_eq!(field(&lines[0], "found"), &Value::Bool(false));
        assert_eq!(field(&lines[0], "dropped"), &Value::Num(0.0));
        // `cancel` without a target is an error, not a crash.
        assert_eq!(field(&lines[1], "event"), &Value::Str("error".into()));
        // The stats op reports scheduler counters.
        assert_eq!(field(&lines[2], "event"), &Value::Str("stats".into()));
        let sched = field(&lines[2], "scheduler");
        assert_eq!(field(sched, "submitted"), &Value::Num(0.0));
        assert_eq!(field(sched, "coalesce_hit_rate"), &Value::Num(0.0));
        // And the trace cache: what workers hold, and the lifetime
        // build/decode counters.
        let traces = field(&lines[2], "trace_cache");
        for key in ["bytes", "live", "built", "db_hits"] {
            assert!(
                matches!(field(traces, key), Value::Num(n) if *n >= 0.0),
                "trace_cache.{key}"
            );
        }
        assert_eq!(field(&lines[3], "event"), &Value::Str("bye".into()));
    }

    #[test]
    fn busy_rejection_is_structured_and_loop_survives() {
        // queue_limit 2 with a single worker: a 4-job request is rejected
        // atomically, a 1-job request still goes through.
        let session = Session::ephemeral().with_jobs(1);
        let input = "{\"id\": \"big\", \"op\": \"run\", \"plan\": {\"name\": \"b\", \
                     \"configs\": [{\"topology\": \"ring\", \"clusters\": 4}, {\"topology\": \"conv\", \"clusters\": 4}], \
                     \"benches\": [\"swim\", \"gzip\"], \
                     \"budget\": {\"warmup\": 1000, \"measure\": 4000}}}\n\
                     {\"id\": \"small\", \"op\": \"run\", \"plan\": {\"name\": \"s\", \
                     \"configs\": [{\"name\": \"Ring_4clus_1bus_2IW\"}], \
                     \"benches\": [\"swim\"], \
                     \"budget\": {\"warmup\": 1000, \"measure\": 4000}}}\n\
                     {\"op\": \"shutdown\"}\n";
        let mut out = Vec::new();
        let summary = serve_with(
            &session,
            input.as_bytes(),
            &mut out,
            &ServeOpts { queue_limit: 2 },
        )
        .unwrap();
        assert_eq!(summary.runs, 1);
        assert_eq!(summary.stats.rejected, 1);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde::json::parse(l).unwrap())
            .collect();
        let busy = &lines[0];
        assert_eq!(field(busy, "event"), &Value::Str("error".into()));
        assert_eq!(field(busy, "id"), &Value::Str("big".into()));
        assert_eq!(field(busy, "reason"), &Value::Str("busy".into()));
        assert_eq!(field(busy, "limit"), &Value::Num(2.0));
        // The small request completed despite the rejection.
        let result = &lines[lines.len() - 2];
        assert_eq!(field(result, "event"), &Value::Str("result".into()));
        assert_eq!(field(result, "id"), &Value::Str("small".into()));
    }
}
