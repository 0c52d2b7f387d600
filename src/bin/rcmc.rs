//! `rcmc` — command-line front end for the RCMC reproduction.
//!
//! ```text
//! rcmc list                         # benchmarks, configurations, plans
//! rcmc run swim --config Ring_8clus_1bus_2IW --instrs 100000
//! rcmc compare galgel --jobs 2      # Ring vs Conv side by side
//! rcmc disasm mcf --limit 40        # static code of a surrogate benchmark
//! rcmc trace view gzip --from 500 --len 24 [--config NAME]
//! rcmc trace record swim            # write a suite trace to a .trc file
//! rcmc trace import f.trc --name x  # adopt an externally captured trace
//! rcmc trace list | verify | rm     # manage the store of imported traces
//! rcmc figures --jobs 8             # Tables 1-3, Figures 3-14 (+ workload mix)
//! rcmc csv --out sweep.csv          # main sweep as CSV
//! rcmc layout                       # §3.2 area/floorplan study
//! rcmc machines list                # the machine-family registry arch table
//! rcmc machines show wide           # one family's full delta
//! rcmc plan run spec.json           # execute a user-authored plan file
//! rcmc plan show main               # print a builtin plan as JSON
//! rcmc report fig06                 # run a builtin plan, print its reports
//! rcmc report ablations             # the beyond-paper ablation studies
//! rcmc serve                        # JSON-lines request loop on stdin/stdout
//! ```
//!
//! Every sweeping command goes through one [`Session`] (shared result
//! store, worker count) and streams a status line to stderr: `--jobs N`
//! (default: `RCMC_JOBS`, else all cores) sets the worker count, and
//! results are bit-identical at any worker count. Unknown flags,
//! unparsable flag values and bad `RCMC_*` settings are hard errors (exit
//! code 2), not silently ignored.
//!
//! Suite benchmarks are always emulated; the trace store (`--trace-store
//! DIR`, else `RCMC_TRACE_DIR`, else `target/rcmc-traces`) holds imported
//! traces only.

use std::collections::HashMap;
use std::fs::File;

use ring_clustered::core::{Core, PipeTracer};
use ring_clustered::emu::{TraceDb, TraceDbError, TraceError, TraceMeta};
use ring_clustered::sim::experiments::{self, plans};
use ring_clustered::sim::plan::ConfigSpec;
use ring_clustered::sim::runner::{
    default_jobs, default_trace_db, env_count, trace_cache_stats, write_err, Budget, SweepProgress,
    Workload,
};
use ring_clustered::sim::{config, machines, serve, Plan, ResultStore, Session};
use ring_clustered::workloads::{benchmark, suite};

/// Write to stdout: everything the CLI prints goes through this one
/// writer. A reader that closed the pipe early
/// (`rcmc disasm mcf | head -1`) ends the process quietly with exit 0;
/// any other error exits 1.
fn write_out(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => die(format!("cannot write to stdout: {e}")),
        Ok(()) => {}
    }
}

/// `print!` and `println!` through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => { write_out(format_args!($($arg)*)) };
}
macro_rules! outln {
    ($($arg:tt)*) => { write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

/// `eprintln!` through [`write_err`]: messages, progress and summaries on
/// stderr are best-effort, so a closed or full stderr never panics the CLI
/// or changes its exit code.
macro_rules! errln {
    ($($arg:tt)*) => { write_err(format_args!("{}\n", format_args!($($arg)*))) };
}

fn main() {
    check_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return;
    };
    let flags = match cmd.as_str() {
        "list" | "layout" => parse_flags(cmd, &args[1..], &[]),
        "serve" => parse_flags(
            cmd,
            &args[1..],
            &["jobs", "store", "queue-limit", "trace-store"],
        ),
        "run" => parse_flags(
            cmd,
            &args[1..],
            &[
                "config",
                "machine",
                "topology",
                "steering",
                "instrs",
                "warmup",
                "jobs",
                "trace-store",
            ],
        ),
        "machines" => parse_flags(cmd, &args[1..], &[]),
        "compare" => parse_flags(cmd, &args[1..], &["instrs", "warmup", "jobs"]),
        "disasm" => parse_flags(cmd, &args[1..], &["limit"]),
        "trace" => {
            // Flag vocabulary depends on the verb; `parse_flags` skips bare
            // words, so handing it the verb as a positional is harmless.
            let allowed: &[&str] = match args.get(1).map(String::as_str) {
                Some("view") => &["from", "len", "config"],
                Some("record") => &["len", "trace-store"],
                Some("import") => &["name", "trace-store"],
                _ => &["trace-store"], // list | verify | rm | errors
            };
            parse_flags(cmd, &args[1..], allowed)
        }
        "figures" | "report" => parse_flags(cmd, &args[1..], &["jobs"]),
        "csv" => parse_flags(cmd, &args[1..], &["out", "jobs"]),
        "plan" => parse_flags(
            cmd,
            &args[1..],
            &["jobs", "out", "store", "machine", "trace-store"],
        ),
        other => {
            errln!("unknown command '{other}'\n");
            usage();
            std::process::exit(1);
        }
    };
    match cmd.as_str() {
        "list" => list(),
        "run" => run(&args, &flags),
        "compare" => compare(&args, &flags),
        "disasm" => disasm(&args, &flags),
        "trace" => trace_cmd(&args, &flags),
        "figures" => figures(&flags),
        "csv" => csv(&flags),
        "layout" => layout(),
        "machines" => machines_cmd(&args),
        "plan" => plan_cmd(&args, &flags),
        "report" => report_cmd(&args, &flags),
        "serve" => serve_cmd(&flags),
        _ => unreachable!("validated above"),
    }
}

fn usage() {
    errln!(
        "rcmc — ring clustered microarchitecture (IPDPS'05 reproduction)\n\
         \n\
         commands:\n\
         \x20 list                          benchmarks, configurations, builtin plans\n\
         \x20 run <bench> [--config NAME | --machine FAMILY]\n\
         \x20                               [--topology ring|conv|crossbar|mesh|hier]\n\
         \x20                               [--steering ringdep|dcount|ssa]\n\
         \x20                               [--instrs N] [--warmup N] [--jobs N]\n\
         \x20 compare <bench> [--instrs N] [--warmup N] [--jobs N]\n\
         \x20                               Ring vs Conv side by side\n\
         \x20 disasm <bench> [--limit N]    static surrogate code\n\
         \x20 trace view <bench> [--from I] [--len N] [--config NAME]\n\
         \x20                               cycle-by-cycle pipeline view\n\
         \x20 trace record <bench> [--len N]   write a suite trace to a .trc file\n\
         \x20                               (for `trace import`; runs emulate)\n\
         \x20 trace import <file> [--name N]   adopt an external .trc as a workload\n\
         \x20                               (replacing a trace of that name)\n\
         \x20 trace list | verify [name] | rm <name>\n\
         \x20                               manage the store of imported traces\n\
         \x20 figures [--jobs N]            Tables 1-3, Figures 3-14, workload mix\n\
         \x20 csv [--out FILE] [--jobs N]   dump the main sweep as CSV\n\
         \x20 layout                        area + floorplan study\n\
         \x20 machines list                 the machine-family registry (arch table)\n\
         \x20 machines show <family>        one family's full CoreConfig delta\n\
         \x20 plan run <spec.json> [--jobs N] [--out FILE] [--store DIR]\n\
         \x20                      [--machine FAMILY]\n\
         \x20                               execute a plan spec file (--machine sets\n\
         \x20                               the family on every axes-form entry)\n\
         \x20 plan show <name>              print a builtin plan as JSON\n\
         \x20 plan list                     builtin plans + the machine registry\n\
         \x20 report <name> [--jobs N]      run a builtin plan and print its reports\n\
         \x20                               (fig06 … fig14, topology, steering-cross,\n\
         \x20                               steering-decomposition, ablations)\n\
         \x20 serve [--jobs N] [--store DIR] [--queue-limit N]\n\
         \x20                               concurrent JSON-lines request loop on\n\
         \x20                               stdin/stdout (see README 'Serve concurrency')\n\
         \n\
         run, plan run, serve and every trace verb but view also accept\n\
         \x20 --trace-store DIR             where imported traces live (suite\n\
         \x20                               benchmarks are always emulated)\n\
         \n\
         environment:\n\
         \x20 RCMC_INSTRS / RCMC_WARMUP     default measurement window\n\
         \x20 RCMC_JOBS                     default sweep worker count (else all cores)\n\
         \x20 RCMC_TRACE_DIR                trace store directory\n\
         \x20                               (default target/rcmc-traces)\n\
         \n\
         --jobs parallelizes sweeps; `run` accepts it for symmetry but a single\n\
         run always uses one worker.\n\
         run's flags compose like one plan config entry's fields: --topology\n\
         moves the configuration to another interconnect (ring | conv/bus |\n\
         crossbar/xbar | mesh | hier) with that topology's default steering;\n\
         --steering then sets the policy (ringdep/dep | dcount | ssa).\n\
         --machine builds on a registry family's sizing instead of a preset\n\
         (`rcmc machines list`); it cannot be combined with --config.\n\
         Plan spec files and the serve protocol are documented in the README\n\
         ('Plans and reports')."
    );
}

/// Parse `--flag value` pairs, rejecting flags outside `allowed` and
/// flags with a missing value. Bare words (positionals) pass through
/// untouched.
fn parse_flags(cmd: &str, rest: &[String], allowed: &[&str]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        if let Some(key) = rest[i].strip_prefix("--") {
            if !allowed.contains(&key) {
                errln!("unknown flag '--{key}' for '{cmd}'\n");
                usage();
                std::process::exit(2);
            }
            match rest.get(i + 1) {
                Some(val) if !val.starts_with("--") => {
                    out.insert(key.to_string(), val.clone());
                    i += 2;
                }
                _ => {
                    errln!("flag '--{key}' needs a value");
                    std::process::exit(2);
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Fetch a numeric flag; an unparsable value is a hard error, not a default.
fn num_flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    flags.get(key).map(|v| {
        v.parse().unwrap_or_else(|_| {
            errln!("invalid value '{v}' for --{key}");
            std::process::exit(2);
        })
    })
}

fn positional(args: &[String], idx: usize, what: &str) -> String {
    args.get(idx).cloned().unwrap_or_else(|| {
        errln!("missing {what}");
        std::process::exit(1);
    })
}

/// The measurement window `--instrs`/`--warmup` ask for (defaults:
/// [`Budget::default`]). A zero window measures nothing, so `--instrs 0`
/// exits 2, like a zero `RCMC_INSTRS`.
fn budget_from(flags: &HashMap<String, String>) -> Budget {
    let mut b = Budget::default();
    if let Some(v) = num_flag(flags, "instrs") {
        if v == 0 {
            errln!("--instrs must be at least 1");
            std::process::exit(2);
        }
        b.measure = v;
    }
    if let Some(v) = num_flag(flags, "warmup") {
        b.warmup = v;
    }
    b
}

fn jobs_from(flags: &HashMap<String, String>) -> usize {
    match num_flag::<usize>(flags, "jobs") {
        Some(0) => {
            errln!("--jobs must be at least 1\n");
            usage();
            std::process::exit(2);
        }
        Some(n) => n,
        None => default_jobs(),
    }
}

/// Reject a set but invalid `RCMC_JOBS`, `RCMC_INSTRS` or `RCMC_WARMUP`
/// up front, with the same parse the library defaults use — a value
/// silently replaced by a default hides the configuration mistake.
fn check_env() {
    for (var, min) in [("RCMC_JOBS", 1), ("RCMC_INSTRS", 1), ("RCMC_WARMUP", 0)] {
        if let Err(e) = env_count(var, min) {
            errln!("{e}; unset it for the default\n");
            usage();
            std::process::exit(2);
        }
    }
}

/// The shared CLI execution environment: default store, `--jobs` workers.
fn session_from(flags: &HashMap<String, String>) -> Session {
    Session::new().with_jobs(jobs_from(flags))
}

/// The progress callback of every sweeping command: the stderr status line.
fn status(p: &SweepProgress<'_>) {
    p.eprint_status();
}

/// The `--out FILE` of a sweeping command, created before anything
/// resolves or runs, so a path that cannot be written fails at once (a
/// user error); `None` without the flag.
fn out_file(flags: &HashMap<String, String>) -> Option<(String, std::fs::File)> {
    let path = flags.get("out").filter(|p| !p.is_empty())?;
    match std::fs::File::create(path) {
        Ok(file) => Some((path.clone(), file)),
        Err(e) => die(format!("cannot write '{path}': {e}")),
    }
}

/// Write `text` to an [`out_file`], returning its path, or to stdout
/// without one.
fn write_result(dest: Option<(String, std::fs::File)>, text: &str) -> Option<String> {
    use std::io::Write;
    let Some((path, mut file)) = dest else {
        out!("{text}");
        return None;
    };
    if let Err(e) = file.write_all(text.as_bytes()) {
        die::<()>(format!("cannot write '{path}': {e}"));
    }
    Some(path)
}

/// The store of imported traces: `--trace-store DIR`, else the
/// process-wide store (`RCMC_TRACE_DIR`, else `target/rcmc-traces`).
fn trace_db_from(flags: &HashMap<String, String>) -> TraceDb {
    match flags.get("trace-store") {
        Some(dir) => TraceDb::at(dir.into()),
        None => default_trace_db().clone(),
    }
}

/// The axes spec of a known configuration (`--config NAME`).
fn preset_spec(name: &str) -> ConfigSpec {
    config::preset_spec(name).unwrap_or_else(|| {
        errln!("unknown configuration '{name}' (see `rcmc list`)");
        std::process::exit(1);
    })
}

fn list() {
    outln!("benchmarks (12 INT + 14 FP SPEC2000 surrogates):");
    for b in suite() {
        let class = if b.is_fp() { "FP " } else { "INT" };
        outln!("  {:10} {class}  {:?}", b.name, b.kernel);
    }
    let groups = config::group_names().join(" + ");
    outln!("\nconfigurations (groups {groups}):");
    for c in config::known_configs() {
        outln!("  {}", c.name);
    }
    outln!("\nbuiltin plans (rcmc plan show <name>):");
    for p in plans::BUILTIN {
        outln!("  {p}");
    }
}

fn print_result(r: &ring_clustered::sim::RunResult) {
    outln!("  IPC                {:>8.3}", r.ipc);
    outln!("  comms/instruction  {:>8.3}", r.comms_per_insn);
    outln!("  hops/communication {:>8.2}", r.dist_per_comm);
    outln!("  bus wait/comm      {:>8.2}", r.wait_per_comm);
    outln!("  NREADY/cycle       {:>8.2}", r.nready);
    outln!("  branch miss rate   {:>8.3}", r.branch_miss_rate);
    let shares: Vec<String> = r
        .dispatch_shares
        .iter()
        .map(|s| format!("{:.0}%", s * 100.0))
        .collect();
    outln!("  dispatch shares    [{}]", shares.join(" "));
}

fn run(args: &[String], flags: &HashMap<String, String>) {
    let bench = positional(args, 1, "benchmark name");
    // The flags compose into one spec: a preset's (or a family's) axes,
    // then `--topology` with that topology's default steering, then
    // `--steering`.
    let mut spec = match (flags.get("config"), flags.get("machine")) {
        (Some(_), Some(_)) => {
            // A family is a different way of choosing the base sizing, so
            // it conflicts with a preset name.
            errln!("--machine cannot be combined with --config\n");
            usage();
            std::process::exit(2);
        }
        (None, Some(family)) => ConfigSpec::for_machine(family.clone()),
        (name, None) => preset_spec(name.map_or("Ring_8clus_1bus_2IW", String::as_str)),
    };
    if let Some(t) = flags.get("topology") {
        spec.topology = Some(t.clone());
        spec.steering = None;
    }
    if let Some(s) = flags.get("steering") {
        spec.steering = Some(s.clone());
    }
    let cfg = spec
        .resolve()
        .unwrap_or_else(|e| {
            errln!("rcmc run: {e}");
            std::process::exit(2);
        })
        .remove(0);
    let _ = jobs_from(flags); // validated; a single run always uses one worker
    let session = Session::new()
        .with_jobs(1)
        .with_trace_store(trace_db_from(flags));
    // An unknown workload fails plan resolution: exit 1, nothing runs.
    let plan = Plan::new("run")
        .config(spec)
        .bench(&bench)
        .budget(budget_from(flags));
    let rs = session.run(&plan).unwrap_or_else(die);
    let r = &rs.rows()[0];
    outln!(
        "{bench} on {} ({} measured instructions):",
        cfg.name,
        r.committed
    );
    print_result(r);
}

fn compare(args: &[String], flags: &HashMap<String, String>) {
    let bench = positional(args, 1, "benchmark name");
    let session = session_from(flags);
    // Both sides are one plan, so `--jobs 2` runs them concurrently.
    let plan = Plan::new("compare")
        .config_named("Ring_8clus_1bus_2IW")
        .config_named("Conv_8clus_1bus_2IW")
        .bench(&bench)
        .budget(budget_from(flags));
    let results = session.run_streaming(&plan, &status).unwrap_or_else(die);
    let ring = results.get("Ring_8clus_1bus_2IW", &bench).unwrap();
    let conv = results.get("Conv_8clus_1bus_2IW", &bench).unwrap();
    outln!("{bench}: Ring_8clus_1bus_2IW");
    print_result(ring);
    outln!("{bench}: Conv_8clus_1bus_2IW");
    print_result(conv);
    outln!(
        "Ring speedup over Conv: {:+.1}%",
        (ring.ipc / conv.ipc - 1.0) * 100.0
    );
}

fn disasm(args: &[String], flags: &HashMap<String, String>) {
    let bench = positional(args, 1, "benchmark name");
    let limit: usize = num_flag(flags, "limit").unwrap_or(64);
    let Some(b) = benchmark(&bench) else {
        errln!("unknown benchmark '{bench}'");
        std::process::exit(1);
    };
    let program = b.build();
    outln!(
        "{bench}: {} static instructions, {} bytes of data",
        program.insns.len(),
        program.data_len()
    );
    for line in program.disassemble().lines().take(limit) {
        outln!("{line}");
    }
    if program.insns.len() > limit {
        outln!("... ({} more; use --limit)", program.insns.len() - limit);
    }
}

fn trace_cmd(args: &[String], flags: &HashMap<String, String>) {
    let sub = positional(
        args,
        1,
        "trace subcommand (view | record | import | list | rm | verify)",
    );
    match sub.as_str() {
        "view" => trace_view(args, flags),
        "record" => trace_record(args, flags),
        "import" => trace_import(args, flags),
        "list" => trace_list(flags),
        "rm" => trace_rm(args, flags),
        "verify" => trace_verify(args, flags),
        other => {
            if benchmark(other).is_some() {
                errln!("the pipeline view moved: use `rcmc trace view {other} ...`");
            } else {
                errln!("unknown trace subcommand '{other}' (view | record | import | list | rm | verify)");
            }
            std::process::exit(1);
        }
    }
}

fn trace_view(args: &[String], flags: &HashMap<String, String>) {
    let bench = positional(args, 2, "benchmark name");
    let from: u32 = num_flag(flags, "from").unwrap_or(1000);
    let len: u32 = num_flag(flags, "len").unwrap_or(24);
    if len == 0 {
        errln!("--len must be at least 1");
        std::process::exit(2);
    }
    let Some(end) = from.checked_add(len) else {
        errln!("--from + --len must fit in 32 bits");
        std::process::exit(2);
    };
    let workload = Workload::resolve(&bench, Some(default_trace_db())).unwrap_or_else(die);
    let cfg_name = flags
        .get("config")
        .cloned()
        .unwrap_or_else(|| "Ring_8clus_1bus_2IW".to_string());
    let cfg = preset_spec(&cfg_name)
        .resolve()
        .unwrap_or_else(die)
        .remove(0);
    // Streamed like a job: the core holds its ring and the tracer its
    // window, and a damaged imported trace fails here, before any output.
    let mut core = Core::streaming(cfg.core.clone(), cfg.mem, cfg.pred, workload.source());
    core.attach_tracer(PipeTracer::new(from, end));
    core.run(end as u64 + 20_000);
    let tracer = core.take_tracer().unwrap();
    workload.finish(core.into_source()).unwrap_or_else(die);
    outln!("{bench} on {cfg_name}, dynamic instructions {from}..{end}");
    out!("{}", tracer.render(100));
    let (wait, lat) = tracer.latency_summary();
    outln!("mean dispatch→issue wait {wait:.1} cycles; mean issue→complete {lat:.1} cycles");
}

/// `rcmc trace record <bench> [--len N]` — emulate a suite benchmark and
/// write its oracle trace to `<store>/<bench>.trc` record by record, a
/// file to hand to `trace import` (runs of a suite benchmark always
/// emulate; they never read this file).
fn trace_record(args: &[String], flags: &HashMap<String, String>) {
    let bench = positional(args, 2, "benchmark name");
    let Some(b) = benchmark(&bench) else {
        errln!("unknown benchmark '{bench}' (see `rcmc list`)");
        std::process::exit(1);
    };
    let len: u64 = num_flag(flags, "len").unwrap_or_else(|| Budget::default().trace_len());
    let db = trace_db_from(flags);
    let n = match db.record(&bench, len, &b.build()) {
        Ok(meta) => meta.insns,
        Err(TraceError::Decode(_)) => die(format!(
            "trace store '{}' is not writable",
            db.dir().display()
        )),
        Err(e) => die(format!("{bench}: {e}")),
    };
    outln!(
        "recorded {bench}/{len}: {n} dynamic instructions -> {}",
        db.dir().join(format!("{bench}.trc")).display()
    );
}

/// `rcmc trace import <file> [--name NAME]` — adopt an externally captured
/// `.trc` file (full strict validation) as a named workload, replacing any
/// trace stored under that name. The file streams into the store record
/// by record.
fn trace_import(args: &[String], flags: &HashMap<String, String>) {
    let path = positional(args, 2, "trace file");
    let file = File::open(&path).unwrap_or_else(|e| die(format!("cannot read '{path}': {e}")));
    let db = trace_db_from(flags);
    let suite_name = |name: &str| benchmark(name).is_some();
    match db.import(&file, flags.get("name").map(String::as_str), suite_name) {
        Ok(TraceMeta { name, insns, .. }) => outln!(
            "imported '{path}' as workload '{name}' ({insns} instructions); \
             run it like any benchmark: `rcmc run {name}`"
        ),
        Err(TraceDbError::ReservedName(name)) => die(format!(
            "cannot import '{path}' as '{name}': '{name}' is a suite benchmark, whose \
             runs always emulate, so no run would read it (pick another --name)"
        )),
        Err(e) => die(format!("invalid trace file '{path}': {e}")),
    }
}

/// `rcmc trace list` — catalog the store.
fn trace_list(flags: &HashMap<String, String>) {
    let db = trace_db_from(flags);
    let entries = db.scan();
    if entries.is_empty() {
        outln!("trace store {} is empty", db.dir().display());
        return;
    }
    outln!("trace store {}:", db.dir().display());
    outln!(
        "  {:<24} {:>12} {:>12} {:>10}  run",
        "name/len",
        "insns",
        "bytes",
        "version"
    );
    for (name, meta) in entries {
        match meta {
            Ok(m) => outln!(
                "  {:<24} {:>12} {:>12} {:>10}  {}",
                format!("{name}/{}", m.len),
                m.insns,
                m.bytes,
                m.trace_version,
                if m.halted { "halted" } else { "budget" },
            ),
            Err(e) => outln!("  {name:<24} CORRUPT: {e}"),
        }
    }
}

/// `rcmc trace rm <name>` — evict a stored trace.
fn trace_rm(args: &[String], flags: &HashMap<String, String>) {
    let name = positional(args, 2, "workload name");
    let db = trace_db_from(flags);
    if !db.remove(&name) {
        die::<()>(format!("no trace named '{name}' in {}", db.dir().display()));
    }
    outln!("removed trace '{name}'");
}

/// `rcmc trace verify [<name>]` — stream every stored trace through the
/// decoder (full per-record ISA validation, not just the checksum),
/// holding no trace, and report damage.
fn trace_verify(args: &[String], flags: &HashMap<String, String>) {
    let db = trace_db_from(flags);
    let only = args.get(2).filter(|a| !a.starts_with("--"));
    let entries: Vec<_> = db
        .scan()
        .into_iter()
        .filter(|(name, _)| only.is_none_or(|n| name == n))
        .collect();
    if let (Some(name), true) = (only, entries.is_empty()) {
        die::<()>(format!("no trace named '{name}' in {}", db.dir().display()));
    }
    if entries.is_empty() {
        outln!("nothing to verify in {}", db.dir().display());
        return;
    }
    let mut bad = 0;
    for (name, meta) in &entries {
        let (key, checked) = match meta {
            Ok(m) => (format!("{name}/{}", m.len), db.verify(name, m.len)),
            Err(e) => (name.clone(), Err(e.clone())),
        };
        match checked {
            Ok(n) => outln!("ok      {key} ({n} instructions)"),
            Err(e) => {
                bad += 1;
                outln!("CORRUPT {key}: {e}");
            }
        }
    }
    outln!("{} verified, {bad} corrupt", entries.len() - bad);
    if bad > 0 {
        std::process::exit(1);
    }
}

fn die<T>(e: String) -> T {
    errln!("rcmc: {e}");
    std::process::exit(1);
}

fn figures(flags: &HashMap<String, String>) {
    let text = experiments::render_figures(&session_from(flags), None, None, &status);
    out!("{}", text.unwrap_or_else(die));
}

fn csv(flags: &HashMap<String, String>) {
    let dest = out_file(flags);
    let session = session_from(flags);
    let results = session
        .run_streaming(&plans::main(), &status)
        .unwrap_or_else(die);
    let csv = results.to_csv();
    if let Some(path) = write_result(dest, &csv) {
        errln!("wrote {} rows to {path}", csv.lines().count() - 1);
    }
}

fn layout() {
    outln!("{}", ring_clustered::layout::table1_text());
    outln!("{}", ring_clustered::layout::figure4_5_text());
    out!("{}", ring_clustered::layout::figure3_text());
}

/// `rcmc machines list|show <family>` — the machine-family registry.
fn machines_cmd(args: &[String]) {
    let sub = positional(args, 1, "machines subcommand (list | show)");
    match sub.as_str() {
        "list" => out!("{}", machines::render_table()),
        "show" => {
            let name = positional(args, 2, "machine family name");
            match machines::find(&name) {
                Some(m) => out!("{}", m.show()),
                None => die(format!(
                    "unknown machine '{name}' (one of: {})",
                    machines::names().join(" | ")
                )),
            }
        }
        other => {
            errln!("unknown machines subcommand '{other}' (list | show)");
            std::process::exit(1);
        }
    }
}

fn plan_cmd(args: &[String], flags: &HashMap<String, String>) {
    let sub = positional(args, 1, "plan subcommand (run | show | list)");
    match sub.as_str() {
        "list" => {
            outln!("builtin plans (rcmc plan show <name>):");
            for p in plans::BUILTIN {
                outln!("  {p}");
            }
            outln!("\nmachine families (\"machine\" on axes-form config entries):");
            out!("{}", machines::render_table());
        }
        "show" => out!("{}", builtin_plan(args, 2).to_json()),
        "run" => {
            let path = positional(args, 2, "plan spec file");
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                errln!("cannot read '{path}': {e}");
                std::process::exit(1);
            });
            let mut plan = Plan::from_json(&text)
                .unwrap_or_else(|e| die(format!("invalid plan spec '{path}': {e}")));
            let dest = out_file(flags);
            if let Some(family) = flags.get("machine") {
                // The flag re-bases every axes-form entry onto the family
                // (an unknown family fails when the plan resolves);
                // group/name entries cannot take a machine, so a plan with
                // no axes entries has nothing for the flag to act on.
                let mut rebased = 0;
                for spec in &mut plan.configs {
                    if spec.group.is_none() && spec.name.is_none() {
                        spec.machine = Some(family.clone());
                        rebased += 1;
                    }
                }
                if rebased == 0 {
                    die::<()>(format!(
                        "--machine {family}: plan '{}' has no axes-form config \
                         entries to apply it to",
                        plan.name
                    ));
                }
                errln!("--machine {family}: applied to {rebased} config entries");
            }
            // `--store DIR` isolates result memoization (CI runs one plan
            // twice on separate stores, so both runs simulate).
            let store = match flags.get("store") {
                Some(dir) => ResultStore::at(dir.into()),
                None => ResultStore::open_default(),
            };
            let session = Session::with_store(store)
                .with_jobs(jobs_from(flags))
                .with_trace_store(trace_db_from(flags));
            // Stream progress to stderr while recording the final sweep
            // tallies — CI's cold-then-warm machine-sweep check asserts on
            // the executed/memoized summary line below. Executed counts
            // simulations: pairs that joined an identical job ran none.
            let tallies = std::sync::Mutex::new((0usize, 0usize));
            let record = |p: &SweepProgress<'_>| {
                status(p);
                *tallies.lock().unwrap() = (p.total - p.coalesced, p.memoized);
            };
            let rs = session.run_streaming(&plan, &record).unwrap_or_else(die);
            let (executed, memoized) = *tallies.lock().unwrap();
            // The grid as the run resolved it (one resolution per run).
            errln!(
                "plan '{}': {} configurations × {} benchmarks",
                plan.name,
                rs.config_names().len(),
                rs.bench_names().len(),
            );
            errln!("jobs: {executed} executed, {memoized} memoized");
            let ts = trace_cache_stats();
            errln!(
                "traces: {} emulated, {} loaded from trace store",
                ts.built,
                ts.db_hits
            );
            let out = if plan.reports.is_empty() {
                rs.to_csv()
            } else {
                plan.render_text(&rs).unwrap_or_else(die) + "\n"
            };
            if let Some(path) = write_result(dest, &out) {
                errln!("wrote {path}");
            }
        }
        other => {
            errln!("unknown plan subcommand '{other}' (run | show | list)");
            std::process::exit(1);
        }
    }
}

/// The builtin plan named by positional `idx`; unknown names exit 1.
fn builtin_plan(args: &[String], idx: usize) -> Plan {
    let name = positional(args, idx, "builtin plan name");
    plans::builtin(&name).unwrap_or_else(|| {
        die(format!(
            "unknown builtin plan '{name}' (one of: {})",
            plans::BUILTIN.join(" | ")
        ))
    })
}

/// `rcmc report <builtin>` — run a builtin plan and print its reports,
/// exactly as the matching block of `rcmc figures`.
fn report_cmd(args: &[String], flags: &HashMap<String, String>) {
    let plan = builtin_plan(args, 1);
    if plan.reports.is_empty() {
        die::<()>(format!("builtin plan '{}' has no reports", plan.name));
    }
    let rs = session_from(flags)
        .run_streaming(&plan, &status)
        .unwrap_or_else(die);
    out!("{}", plan.render_text(&rs).unwrap_or_else(die));
}

fn serve_cmd(flags: &HashMap<String, String>) {
    // `--store DIR` isolates this service instance's memoization (load
    // tests want a cold store; deployments may want a shared warm one).
    let store = match flags.get("store") {
        Some(dir) => ResultStore::at(dir.into()),
        None => ResultStore::open_default(),
    };
    // Each request's progress goes out as its own JSON events.
    let session = Session::with_store(store)
        .with_jobs(jobs_from(flags))
        .with_trace_store(trace_db_from(flags));
    let opts = serve::ServeOpts {
        queue_limit: match num_flag::<usize>(flags, "queue-limit") {
            Some(0) => {
                errln!("--queue-limit must be at least 1");
                std::process::exit(2);
            }
            Some(n) => n,
            None => serve::DEFAULT_QUEUE_LIMIT,
        },
    };
    let stdin = std::io::stdin();
    match serve::serve_with(&session, stdin.lock(), std::io::stdout(), &opts) {
        Ok(s) => errln!(
            "rcmc serve: {} requests, {} plans accepted, {} jobs executed, \
             {} failed, {} coalesced, {} memoized, {} cancelled",
            s.requests,
            s.runs,
            s.stats.executed,
            s.stats.failed,
            s.stats.coalesced,
            s.stats.memoized,
            s.stats.cancelled,
        ),
        Err(e) => die(format!("serve: {e}")),
    }
}
