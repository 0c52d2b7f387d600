//! Text rendering of the paper's figures.
//!
//! The paper reports each metric for three groups: AVERAGE (all 26
//! programs), INT (12) and FP (14). The aggregation itself — group means,
//! geometric-mean speedups, CSV export — lives on
//! [`crate::resultset::ResultSet`]; this module only turns the aggregated
//! [`GroupValues`] rows into aligned text tables.

use std::fmt::Write as _;

use crate::runner::RunResult;

pub use crate::resultset::GroupValues;

/// Write `title` and a rule of the same width (in characters, so a `λ`
/// counts once).
fn underlined(out: &mut String, title: &str) {
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", "-".repeat(title.chars().count()));
}

/// An aligned AVERAGE/INT/FP table under an underlined `title`: value
/// columns `width` wide, each cell written by `cell`.
fn render_table(
    title: &str,
    header_suffix: &str,
    width: usize,
    rows: &[(String, GroupValues)],
    cell: impl Fn(f64) -> String,
) -> String {
    let name_w = rows
        .iter()
        .map(|(n, _)| n.chars().count())
        .fold(14, usize::max);
    let mut out = String::new();
    underlined(&mut out, title);
    let _ = writeln!(
        out,
        "{:name_w$}  {:>width$} {:>width$} {:>width$}{header_suffix}",
        "configuration", "AVERAGE", "INT", "FP"
    );
    for (name, v) in rows {
        let (avg, int, fp) = (cell(v.avg), cell(v.int), cell(v.fp));
        let _ = writeln!(out, "{name:name_w$}  {avg} {int} {fp}");
    }
    out
}

/// Render a figure as an aligned text table of AVERAGE/INT/FP columns.
pub fn render_grouped(title: &str, unit: &str, rows: &[(String, GroupValues)]) -> String {
    let suffix = format!("   [{unit}]");
    render_table(title, &suffix, 10, rows, |v| format!("{v:>10.3}"))
}

/// Render speedup rows as percentages (Figures 6, 12, 13).
pub fn render_speedups(title: &str, rows: &[(String, GroupValues)]) -> String {
    render_table(title, "", 9, rows, |v| {
        format!("{:>+8.1}%", (v - 1.0) * 100.0)
    })
}

/// Render one configuration's per-benchmark dispatch distribution across
/// clusters (Figure 11) under `title`.
pub fn render_distribution(title: &str, results: &[&RunResult]) -> String {
    let mut out = String::new();
    let n = results
        .first()
        .map(|r| r.dispatch_shares.len())
        .unwrap_or(0);
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:10}", "program");
    for c in 0..n {
        let _ = write!(out, " {:>6}", format!("clu{c}"));
    }
    let _ = writeln!(out);
    for r in results {
        let _ = write!(out, "{:10}", r.bench);
        for s in &r.dispatch_shares {
            let _ = write!(out, " {:>5.1}%", s * 100.0);
        }
        let _ = writeln!(out);
    }
    out
}

/// Render `values` row-major under `rows` × `cols` labels (the
/// steering-cross matrix).
pub fn render_matrix(title: &str, rows: &[String], cols: &[String], values: &[f64]) -> String {
    let mut out = String::new();
    underlined(&mut out, title);
    let _ = write!(out, "{:8}", "");
    for c in cols {
        let _ = write!(out, " {c:>10}");
    }
    let _ = writeln!(out);
    for (r, row) in rows.iter().zip(values.chunks(cols.len())) {
        let _ = write!(out, "{r:8}");
        for v in row {
            let _ = write!(out, " {v:>10.3}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Per-benchmark metric table for one configuration (long-form appendix
/// tables).
pub fn render_per_benchmark(config: &str, results: &[&RunResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Per-benchmark results for {config}");
    let _ = writeln!(
        out,
        "{:10} {:>5} {:>8} {:>10} {:>8} {:>8} {:>8}",
        "program", "class", "IPC", "comms/ins", "hops", "buswait", "NREADY"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:10} {:>5} {:>8.3} {:>10.3} {:>8.2} {:>8.2} {:>8.2}",
            r.bench,
            if r.fp { "FP" } else { "INT" },
            r.ipc,
            r.comms_per_insn,
            r.dist_per_comm,
            r.wait_per_comm,
            r.nready,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(config: &str, bench: &str, fp: bool, ipc: f64) -> RunResult {
        RunResult {
            config: config.into(),
            bench: bench.into(),
            fp,
            ipc,
            comms_per_insn: 0.1,
            dist_per_comm: 1.5,
            wait_per_comm: 0.5,
            nready: 1.0,
            dispatch_shares: vec![0.25; 4],
            branch_miss_rate: 0.05,
            committed: 1000,
            cycles: 500,
        }
    }

    #[test]
    fn renderers_produce_aligned_tables() {
        let rows = vec![(
            "Ring_8clus_1bus_2IW".to_string(),
            GroupValues {
                avg: 1.081,
                int: 1.02,
                fp: 1.15,
            },
        )];
        let sp = render_speedups("Figure 6. Speedup of Ring over Conv", &rows);
        assert!(sp.contains("+8.1%"));
        assert!(sp.contains("+15.0%"));
        let gr = render_grouped(
            "Figure 7",
            "comms/insn",
            &[(
                "Conv_4clus_1bus_2IW".into(),
                GroupValues {
                    avg: 0.2,
                    int: 0.1,
                    fp: 0.3,
                },
            )],
        );
        assert!(gr.contains("0.200"));
        assert!(gr.contains("comms/insn"));
    }

    #[test]
    fn distribution_renders_all_programs() {
        let a = rr("Ring", "ammp", true, 1.0);
        let b = rr("Ring", "swim", true, 1.0);
        let out = render_distribution("Shares (Ring_8clus_1bus_2IW)", &[&a, &b]);
        assert!(out.starts_with("Shares (Ring_8clus_1bus_2IW)\n"));
        assert!(out.contains("ammp"));
        assert!(out.contains("swim"));
        assert!(out.contains("25.0%"));
    }

    #[test]
    fn underlines_count_characters_not_bytes() {
        let title = "Wire length (λ)";
        let row = |avg| GroupValues {
            avg,
            int: avg,
            fp: avg,
        };
        for out in [
            render_grouped(title, "λ", &[("X".into(), row(1.0))]),
            render_speedups(title, &[("X".into(), row(1.0))]),
            render_matrix(title, &["r".into()], &["c".into()], &[1.0]),
        ] {
            let rule = out.lines().nth(1).unwrap();
            assert_eq!(rule, "-".repeat(15), "{out}");
        }
    }

    #[test]
    fn matrix_lays_values_out_row_major() {
        let out = render_matrix(
            "M",
            &["DEP".into(), "SSA".into()],
            &["Ring".into(), "Conv".into()],
            &[1.0, 2.0, 3.0, 4.0],
        );
        assert_eq!(
            out,
            "M\n-\n               Ring       Conv\n\
             DEP           1.000      2.000\n\
             SSA           3.000      4.000\n"
        );
    }

    #[test]
    fn per_benchmark_table_renders() {
        let a = rr("X", "swim", true, 2.0);
        let out = render_per_benchmark("X", &[&a]);
        assert!(out.contains("swim"));
        assert!(out.contains("2.000"));
    }
}
