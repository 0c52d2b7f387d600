//! End-to-end lifecycle of the `rcmc trace` subcommand family against an
//! isolated `--trace-store`: record → list → verify → rm, importing a
//! captured file under a new name, and running the import as a workload;
//! a damaged import that fails its run without taking the CLI down; a
//! `trace view` whose reader closes the pipe early; and a stderr that
//! refuses every write.

use std::path::{Path, PathBuf};
use std::process::Command;

fn rcmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rcmc"))
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcmc-tcli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn record_list_verify_rm_lifecycle() {
    let dir = temp_store("lifecycle");
    let store = dir.to_str().unwrap();

    let rec = rcmc()
        .args([
            "trace",
            "record",
            "swim",
            "--len",
            "4000",
            "--trace-store",
            store,
        ])
        .output()
        .unwrap();
    assert!(rec.status.success(), "{rec:?}");
    assert!(stdout(&rec).contains("recorded swim/4000"), "{rec:?}");

    let ls = rcmc()
        .args(["trace", "list", "--trace-store", store])
        .output()
        .unwrap();
    assert!(ls.status.success(), "{ls:?}");
    assert!(stdout(&ls).contains("swim/4000"), "{ls:?}");

    let ver = rcmc()
        .args(["trace", "verify", "--trace-store", store])
        .output()
        .unwrap();
    assert!(ver.status.success(), "{ver:?}");
    assert!(stdout(&ver).contains("ok      swim/4000"), "{ver:?}");
    assert!(stdout(&ver).contains("1 verified, 0 corrupt"), "{ver:?}");

    // Damage the stored file: verify must flag it and exit non-zero,
    // and rm must still be able to evict it.
    let path = dir.join("swim.trc");
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    let bad = rcmc()
        .args(["trace", "verify", "--trace-store", store])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    assert!(stdout(&bad).contains("CORRUPT swim/4000"), "{bad:?}");

    let rm = rcmc()
        .args(["trace", "rm", "swim", "--trace-store", store])
        .output()
        .unwrap();
    assert!(rm.status.success(), "{rm:?}");
    assert!(stdout(&rm).contains("removed trace 'swim'"), "{rm:?}");

    // Removing again finds nothing and exits 1.
    let rm2 = rcmc()
        .args(["trace", "rm", "swim", "--trace-store", store])
        .output()
        .unwrap();
    assert_eq!(rm2.status.code(), Some(1), "{rm2:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn import_under_new_name_and_run_it() {
    let dir = temp_store("import");
    let store = dir.to_str().unwrap();

    // Capture a trace, then re-import the raw file as a new workload.
    let rec = rcmc()
        .args([
            "trace",
            "record",
            "mcf",
            "--len",
            "3000",
            "--trace-store",
            store,
        ])
        .output()
        .unwrap();
    assert!(rec.status.success(), "{rec:?}");
    let captured = dir.join("mcf.trc");
    let imp = rcmc()
        .args([
            "trace",
            "import",
            captured.to_str().unwrap(),
            "--name",
            "myext",
            "--trace-store",
            store,
        ])
        .output()
        .unwrap();
    assert!(imp.status.success(), "{imp:?}");
    assert!(stdout(&imp).contains("workload 'myext'"), "{imp:?}");

    // The import is now a named workload: `rcmc run` simulates it. The
    // result store is redirected so a memoized result from an earlier
    // run can never satisfy this invocation without simulating.
    let target = temp_store("import-target");
    let run = rcmc()
        .env("CARGO_TARGET_DIR", &target)
        .args([
            "run",
            "myext",
            "--instrs",
            "2000",
            "--warmup",
            "500",
            "--trace-store",
            store,
        ])
        .output()
        .unwrap();
    assert!(run.status.success(), "{run:?}");
    assert!(stdout(&run).contains("myext"), "{run:?}");
    let _ = std::fs::remove_dir_all(&target);

    // A garbage file must be rejected wholesale.
    let junk = dir.join("junk.trc");
    std::fs::write(&junk, b"not a trace at all").unwrap();
    let bad = rcmc()
        .args([
            "trace",
            "import",
            junk.to_str().unwrap(),
            "--trace-store",
            store,
        ])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Record mcf into `dir` and import it there as `name`; returns the
/// imported file.
fn import_mcf_as(dir: &Path, name: &str) -> PathBuf {
    let rec = rcmc()
        .args(["trace", "record", "mcf", "--len", "3000", "--trace-store"])
        .arg(dir)
        .output()
        .unwrap();
    assert!(rec.status.success(), "{rec:?}");
    let imp = rcmc()
        .args(["trace", "import"])
        .arg(dir.join("mcf.trc"))
        .args(["--name", name, "--trace-store"])
        .arg(dir)
        .output()
        .unwrap();
    assert!(imp.status.success(), "{imp:?}");
    dir.join(format!("{name}.trc"))
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

/// An imported trace whose payload is damaged with its header intact
/// still resolves (resolution reads headers only), and its run fails:
/// exit 1 with a message naming the trace, no panic. No row is
/// memoized, so a second run fails the same way.
#[test]
fn a_damaged_trace_fails_its_run_with_exit_1() {
    let dir = temp_store("damaged");
    let target = temp_store("damaged-target");
    let ext = import_mcf_as(&dir, "ext");
    let mut bytes = std::fs::read(&ext).unwrap();
    *bytes.last_mut().unwrap() ^= 1;
    std::fs::write(&ext, &bytes).unwrap();
    for attempt in 1..=2 {
        let run = rcmc()
            .env("CARGO_TARGET_DIR", &target)
            .args(["run", "ext", "--instrs", "2000", "--warmup", "500"])
            .arg("--trace-store")
            .arg(&dir)
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(1), "run {attempt}: {run:?}");
        let err = String::from_utf8_lossy(&run.stderr);
        assert!(
            err.contains("imported trace 'ext': payload checksum mismatch"),
            "run {attempt}: {err}"
        );
        assert!(!err.contains("panicked"), "run {attempt}: {err}");
        assert_eq!(rows_in(&target), 0, "run {attempt} stored a row");
    }
    for d in [&dir, &target] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// `trace verify NAME` for a name the store does not hold is an error,
/// like `trace rm NAME`: exit 1 and a message.
#[test]
fn verify_of_a_name_not_stored_exits_1() {
    let dir = temp_store("verify-missing");
    let ext = import_mcf_as(&dir, "ext");
    assert!(ext.is_file());
    for name in ["nope", "ext.trc"] {
        let ver = rcmc()
            .args(["trace", "verify", name, "--trace-store"])
            .arg(&dir)
            .output()
            .unwrap();
        assert_eq!(ver.status.code(), Some(1), "{name}: {ver:?}");
        let err = String::from_utf8_lossy(&ver.stderr);
        assert!(err.contains(&format!("no trace named '{name}'")), "{err}");
    }
    let ok = rcmc()
        .args(["trace", "verify", "ext", "--trace-store"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(ok.status.success(), "{ok:?}");
    assert!(stdout(&ok).contains("1 verified, 0 corrupt"), "{ok:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `trace import` reports the instructions the file holds, not the length
/// its capture asked for: fewer, for a capture that halted.
#[test]
fn import_reports_the_stored_instruction_count() {
    use ring_clustered::emu::{trace_program, TraceDb};
    use ring_clustered::isa::{Insn, Opcode, Program, Reg};
    let side = temp_store("count-side");
    let dir = temp_store("count");
    let r = |x| Some(Reg::int(x));
    let program = Program {
        insns: vec![
            Insn::new(Opcode::Movi, r(1), None, None, 5),
            Insn::new(Opcode::Addi, r(1), r(1), None, -1),
            Insn::new(Opcode::Bne, None, r(1), r(0), -2),
            Insn::halt(),
        ],
        data: vec![],
        entry: 0,
    };
    let trace = trace_program(&program, 1000).unwrap();
    assert!(trace.halted && trace.len() < 1000);
    assert!(TraceDb::at(side.clone()).save("halts", 1000, &trace));
    let imp = rcmc()
        .args(["trace", "import"])
        .arg(side.join("halts.trc"))
        .arg("--trace-store")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(imp.status.success(), "{imp:?}");
    let text = stdout(&imp);
    assert!(
        text.contains(&format!("workload 'halts' ({} instructions)", trace.len())),
        "{text}"
    );
    for d in [&side, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn no_trace_store_leaves_no_files() {
    let dir = temp_store("off");
    let target = temp_store("off-target");
    // A suite benchmark is always emulated: the trace store RCMC_TRACE_DIR
    // names is neither read nor written. The result store is redirected so
    // the run really simulates (a memoized result would build no trace).
    let run = rcmc()
        .env("RCMC_TRACE_DIR", &dir)
        .env("CARGO_TARGET_DIR", &target)
        .args(["run", "swim", "--instrs", "2000", "--warmup", "500"])
        .output()
        .unwrap();
    assert!(run.status.success(), "{run:?}");
    assert!(!dir.exists(), "a suite run must not write {dir:?}");
    for d in [&dir, &target] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn import_under_a_suite_name_exits_1_and_writes_nothing() {
    let rec_dir = temp_store("suite-rec");
    let dir = temp_store("suite-imp");
    let rec = rcmc()
        .args(["trace", "record", "mcf", "--len", "3000", "--trace-store"])
        .arg(&rec_dir)
        .output()
        .unwrap();
    assert!(rec.status.success(), "{rec:?}");
    let captured = rec_dir.join("mcf.trc");
    // Renamed onto a suite benchmark, or keeping the suite name embedded
    // in the file: either way no run could ever read the import.
    for (rename, name) in [(Some("gzip"), "gzip"), (None, "mcf")] {
        let mut cmd = rcmc();
        cmd.args(["trace", "import"]).arg(&captured);
        if let Some(n) = rename {
            cmd.args(["--name", n]);
        }
        let imp = cmd.arg("--trace-store").arg(&dir).output().unwrap();
        assert_eq!(imp.status.code(), Some(1), "{imp:?}");
        let err = String::from_utf8_lossy(&imp.stderr);
        assert!(
            err.contains(&format!("'{name}' is a suite benchmark")),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
    assert!(!dir.exists(), "a refused import must not write {dir:?}");
    let _ = std::fs::remove_dir_all(&rec_dir);
}

#[test]
fn trace_view_rejects_bad_input_without_panicking() {
    // An unknown workload is a user error (exit 1, `rcmc run`'s message);
    // an empty window is a bad flag value (exit 2).
    let unknown = rcmc().args(["trace", "view", "nope"]).output().unwrap();
    assert_eq!(unknown.status.code(), Some(1), "{unknown:?}");
    let err = String::from_utf8_lossy(&unknown.stderr);
    assert!(err.contains("unknown benchmark 'nope'"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    // So is a window past the end of the 32-bit instruction index.
    for window in [["--len", "0"], ["--from", "4294967295"]] {
        let bad = rcmc()
            .args(["trace", "view", "gzip"])
            .args(window)
            .output()
            .unwrap();
        assert_eq!(bad.status.code(), Some(2), "{window:?}: {bad:?}");
        let err = String::from_utf8_lossy(&bad.stderr);
        assert!(err.contains("--len"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn run_of_unknown_workload_exits_1_with_a_message() {
    // A name that is neither a suite benchmark nor a stored trace is a
    // user error (exit 1 and a message), checked before anything runs.
    let dir = temp_store("unknown");
    let out = rcmc()
        .args([
            "run",
            "nope",
            "--instrs",
            "2000",
            "--trace-store",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark 'nope'"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unwritable_out_path_exits_1_with_a_message() {
    // `--out` into a directory that does not exist: a user error (exit 1
    // and the path), not a panic, found before the plan resolves or runs
    // (no `jobs:` summary).
    let dir = temp_store("out");
    let missing = dir.join("no-such-dir").join("x.txt");
    let out = rcmc()
        .args(["plan", "run", "examples/specs/plan_smoke.json"])
        .args(["--store", dir.to_str().unwrap(), "--out"])
        .arg(&missing)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("rcmc: cannot write '{}'", missing.display())),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    assert!(!err.contains("jobs:"), "the plan ran first: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_cli_quietly() {
    // `rcmc trace view … | head -1`: ~140 KB of timeline, far more than a
    // pipe buffers, so the CLI is still writing when the reader goes.
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let mut child = rcmc()
        .args(["trace", "view", "gzip", "--from", "0", "--len", "3000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.starts_with("gzip on "), "{first}");
    drop(reader);
    let mut err = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn a_full_stderr_changes_no_exit_code_and_loses_no_stdout() {
    // `2>/dev/full`: every stderr write fails with ENOSPC.
    let full = || {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        std::process::Stdio::from(f)
    };
    let bogus = rcmc().arg("bogus").stderr(full()).output().unwrap();
    assert_eq!(bogus.status.code(), Some(1), "{bogus:?}");

    let dir = temp_store("fullerr");
    let plan = rcmc()
        .args(["plan", "run", "examples/specs/plan_smoke.json"])
        .args(["--store", dir.to_str().unwrap()])
        .stderr(full())
        .output()
        .unwrap();
    let text = stdout(&plan);
    assert_eq!(plan.status.code(), Some(0), "{plan:?}");
    assert!(text.contains("Smoke: IPC"), "{text}");
    assert!(
        text.contains("Ring_4clus_1bus_2IW / Conv_4clus_1bus_2IW"),
        "{text}"
    );
    assert!(!text.contains("panicked"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
