//! Typed result sets: the query/group/geomean/speedup algebra every figure
//! and report draws from.
//!
//! A [`ResultSet`] replaces the raw `HashMap<(String, String), RunResult>`
//! sweeps used to return. Rows are kept sorted by `(config, bench)`, so
//! every traversal — CSV export, per-config queries, group reductions — is
//! deterministic regardless of how the rows were produced or in which order
//! they were inserted. The aggregation combinators reproduce the paper's
//! conventions exactly: plain metrics are arithmetic means per group
//! (AVERAGE / INT / FP), speedups are geometric means of per-benchmark IPC
//! ratios matched by benchmark name.

use std::fmt::Write as _;

use crate::runner::RunResult;

/// One figure bar-group: AVERAGE (whole suite) / INT / FP.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupValues {
    /// Mean over the whole suite.
    pub avg: f64,
    /// Mean over SPECint surrogates.
    pub int: f64,
    /// Mean over SPECfp surrogates.
    pub fp: f64,
}

/// A named scalar metric of a [`RunResult`], so plans and reports can
/// request reductions by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Instructions per cycle.
    Ipc,
    /// Communications per committed instruction.
    CommsPerInsn,
    /// Mean hops per communication.
    DistPerComm,
    /// Mean bus-wait cycles per communication.
    WaitPerComm,
    /// Mean NREADY (ready-but-unissued instructions) per cycle.
    Nready,
    /// Conditional-branch misprediction rate.
    BranchMissRate,
}

impl Metric {
    /// Every metric, in display order.
    pub const ALL: [Metric; 6] = [
        Metric::Ipc,
        Metric::CommsPerInsn,
        Metric::DistPerComm,
        Metric::WaitPerComm,
        Metric::Nready,
        Metric::BranchMissRate,
    ];

    /// The spec-file spelling (`"ipc"`, `"comms_per_insn"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Metric::Ipc => "ipc",
            Metric::CommsPerInsn => "comms_per_insn",
            Metric::DistPerComm => "dist_per_comm",
            Metric::WaitPerComm => "wait_per_comm",
            Metric::Nready => "nready",
            Metric::BranchMissRate => "branch_miss_rate",
        }
    }

    /// Unit label used by the text renderers.
    pub fn unit(self) -> &'static str {
        match self {
            Metric::Ipc => "IPC",
            Metric::CommsPerInsn => "comms/insn",
            Metric::DistPerComm => "hops",
            Metric::WaitPerComm => "wait cycles",
            Metric::Nready => "insns/cycle",
            Metric::BranchMissRate => "miss rate",
        }
    }

    /// Parse a spec-file spelling. `None` for unknown names.
    pub fn parse(s: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Extract the metric from one run.
    pub fn of(self, r: &RunResult) -> f64 {
        match self {
            Metric::Ipc => r.ipc,
            Metric::CommsPerInsn => r.comms_per_insn,
            Metric::DistPerComm => r.dist_per_comm,
            Metric::WaitPerComm => r.wait_per_comm,
            Metric::Nready => r.nready,
            Metric::BranchMissRate => r.branch_miss_rate,
        }
    }
}

/// Arithmetic mean of `metric` per AVERAGE/INT/FP group over `results`.
pub fn group_mean(results: &[&RunResult], metric: impl Fn(&RunResult) -> f64) -> GroupValues {
    let mean = |filter: &dyn Fn(&&&RunResult) -> bool| {
        let vals: Vec<f64> = results.iter().filter(filter).map(|r| metric(r)).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    GroupValues {
        avg: mean(&|_| true),
        int: mean(&|r| !r.fp),
        fp: mean(&|r| r.fp),
    }
}

/// Geometric-mean IPC speedup of `num` over `den`, matched by benchmark.
/// Benchmarks missing from `den` are skipped; an empty intersection is a
/// neutral speedup of 1.
pub fn group_speedup(num: &[&RunResult], den: &[&RunResult]) -> GroupValues {
    let geo = |filter: &dyn Fn(bool) -> bool| {
        let mut log_sum = 0.0;
        let mut n = 0usize;
        for r in num {
            if !filter(r.fp) {
                continue;
            }
            let Some(d) = den.iter().find(|d| d.bench == r.bench) else {
                continue;
            };
            if d.ipc > 0.0 && r.ipc > 0.0 {
                log_sum += (r.ipc / d.ipc).ln();
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            (log_sum / n as f64).exp()
        }
    };
    GroupValues {
        avg: geo(&|_| true),
        int: geo(&|fp| !fp),
        fp: geo(&|fp| fp),
    }
}

/// Geometric mean of `metric` per AVERAGE/INT/FP group (only meaningful for
/// strictly positive metrics; non-positive samples are skipped).
pub fn group_geomean(results: &[&RunResult], metric: impl Fn(&RunResult) -> f64) -> GroupValues {
    let geo = |filter: &dyn Fn(&&&RunResult) -> bool| {
        let logs: Vec<f64> = results
            .iter()
            .filter(filter)
            .map(|r| metric(r))
            .filter(|&v| v > 0.0)
            .map(f64::ln)
            .collect();
        if logs.is_empty() {
            0.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        }
    };
    GroupValues {
        avg: geo(&|_| true),
        int: geo(&|r| !r.fp),
        fp: geo(&|r| r.fp),
    }
}

/// The typed result of a sweep: every `(configuration × benchmark)` run,
/// kept sorted by `(config, bench)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    rows: Vec<RunResult>,
}

impl ResultSet {
    /// An empty set.
    pub fn new() -> ResultSet {
        ResultSet::default()
    }

    /// Build from rows in any order; they are sorted by `(config, bench)`
    /// and deduplicated (the last row for a key wins).
    pub fn from_rows(mut rows: Vec<RunResult>) -> ResultSet {
        rows.sort_by(|a, b| (&a.config, &a.bench).cmp(&(&b.config, &b.bench)));
        rows.reverse();
        rows.dedup_by(|a, b| a.config == b.config && a.bench == b.bench);
        rows.reverse();
        ResultSet { rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// No rows at all?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, sorted by `(config, bench)`.
    pub fn rows(&self) -> &[RunResult] {
        &self.rows
    }

    /// The run of one `(configuration, benchmark)` pair, if present.
    pub fn get(&self, config: &str, bench: &str) -> Option<&RunResult> {
        self.rows
            .binary_search_by(|r| (r.config.as_str(), r.bench.as_str()).cmp(&(config, bench)))
            .ok()
            .map(|i| &self.rows[i])
    }

    /// Every run of one configuration, sorted by benchmark name.
    pub fn config(&self, config: &str) -> Vec<&RunResult> {
        self.rows.iter().filter(|r| r.config == config).collect()
    }

    /// Distinct configuration names, in sorted order.
    pub fn config_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.rows.iter().map(|r| r.config.as_str()).collect();
        names.dedup();
        names
    }

    /// Distinct benchmark names, in sorted order.
    pub fn bench_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.rows.iter().map(|r| r.bench.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The rows matching `pred`, as a new set.
    pub fn filter(&self, pred: impl Fn(&RunResult) -> bool) -> ResultSet {
        ResultSet {
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Union of two sets; on a duplicate `(config, bench)` key, `other`'s
    /// row wins.
    pub fn merge(self, other: ResultSet) -> ResultSet {
        let mut rows = self.rows;
        rows.extend(other.rows);
        ResultSet::from_rows(rows)
    }

    /// Arithmetic AVERAGE/INT/FP mean of `metric` over one configuration.
    pub fn group_mean(&self, config: &str, metric: impl Fn(&RunResult) -> f64) -> GroupValues {
        group_mean(&self.config(config), metric)
    }

    /// Geometric AVERAGE/INT/FP mean of `metric` over one configuration.
    pub fn geomean(&self, config: &str, metric: impl Fn(&RunResult) -> f64) -> GroupValues {
        group_geomean(&self.config(config), metric)
    }

    /// Geometric-mean IPC speedup of configuration `num` over `den`.
    pub fn speedup(&self, num: &str, den: &str) -> GroupValues {
        group_speedup(&self.config(num), &self.config(den))
    }

    /// Export as CSV, one row per `(configuration, benchmark)` run, sorted
    /// by config then bench — the order is a structural invariant of the
    /// set, independent of how rows were inserted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "config,bench,class,ipc,comms_per_insn,dist_per_comm,wait_per_comm,nready,branch_miss_rate,cycles,committed\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{}",
                r.config,
                r.bench,
                if r.fp { "FP" } else { "INT" },
                r.ipc,
                r.comms_per_insn,
                r.dist_per_comm,
                r.wait_per_comm,
                r.nready,
                r.branch_miss_rate,
                r.cycles,
                r.committed,
            );
        }
        out
    }
}

impl FromIterator<RunResult> for ResultSet {
    fn from_iter<I: IntoIterator<Item = RunResult>>(iter: I) -> Self {
        ResultSet::from_rows(iter.into_iter().collect())
    }
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
    fn rows_are_sorted_and_deduplicated() {
        let set = ResultSet::from_rows(vec![
            rr("b", "zz", false, 1.0),
            rr("a", "mm", false, 2.0),
            rr("b", "aa", false, 3.0),
            rr("a", "mm", false, 4.0), // later duplicate wins
        ]);
        assert_eq!(set.len(), 3);
        let keys: Vec<(&str, &str)> = set
            .rows()
            .iter()
            .map(|r| (r.config.as_str(), r.bench.as_str()))
            .collect();
        assert_eq!(keys, vec![("a", "mm"), ("b", "aa"), ("b", "zz")]);
        assert_eq!(set.get("a", "mm").unwrap().ipc, 4.0);
        assert_eq!(set.get("a", "nope"), None);
    }

    #[test]
    fn config_query_filters_and_sorts_by_bench() {
        let set = ResultSet::from_rows(vec![
            rr("x", "zz", false, 1.0),
            rr("x", "aa", false, 1.0),
            rr("y", "aa", false, 1.0),
        ]);
        let xs = set.config("x");
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].bench, "aa");
        assert_eq!(xs[1].bench, "zz");
        assert_eq!(set.config_names(), vec!["x", "y"]);
        assert_eq!(set.bench_names(), vec!["aa", "zz"]);
    }

    #[test]
    fn group_mean_splits_classes() {
        let set =
            ResultSet::from_rows(vec![rr("c", "int1", false, 1.0), rr("c", "fp1", true, 3.0)]);
        let g = set.group_mean("c", |r| r.ipc);
        assert_eq!(g.avg, 2.0);
        assert_eq!(g.int, 1.0);
        assert_eq!(g.fp, 3.0);
    }

    #[test]
    fn speedup_is_geometric_and_matched_by_bench() {
        let set = ResultSet::from_rows(vec![
            rr("ring", "a", false, 2.0),
            rr("ring", "b", false, 8.0),
            rr("conv", "a", false, 1.0),
            rr("conv", "b", false, 2.0),
        ]);
        let g = set.speedup("ring", "conv");
        // geomean(2, 4) = sqrt(8)
        assert!((g.int - 8.0f64.sqrt()).abs() < 1e-9);
        assert_eq!(g.fp, 1.0, "no fp benchmarks -> neutral speedup");
        // An unmatched benchmark contributes nothing.
        let extra = set.merge(ResultSet::from_rows(vec![rr("ring", "c", false, 100.0)]));
        let g2 = extra.speedup("ring", "conv");
        assert!((g2.int - g.int).abs() < 1e-12);
    }

    #[test]
    fn geomean_skips_non_positive_samples() {
        let set = ResultSet::from_rows(vec![
            rr("c", "a", false, 4.0),
            rr("c", "b", false, 1.0),
            rr("c", "z", false, 0.0),
        ]);
        let g = set.geomean("c", |r| r.ipc);
        assert!(
            (g.avg - 2.0).abs() < 1e-12,
            "geomean(4, 1) = 2, got {}",
            g.avg
        );
    }

    #[test]
    fn merge_prefers_the_newer_row() {
        let a = ResultSet::from_rows(vec![rr("c", "b", false, 1.0)]);
        let b = ResultSet::from_rows(vec![rr("c", "b", false, 9.0), rr("d", "b", false, 2.0)]);
        let m = a.merge(b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("c", "b").unwrap().ipc, 9.0);
    }

    #[test]
    fn csv_is_sorted_regardless_of_insertion_order() {
        let fwd = ResultSet::from_rows(vec![
            rr("a", "x", false, 1.0),
            rr("b", "x", true, 1.5),
            rr("a", "y", false, 2.0),
        ]);
        let rev = ResultSet::from_rows(vec![
            rr("a", "y", false, 2.0),
            rr("b", "x", true, 1.5),
            rr("a", "x", false, 1.0),
        ]);
        assert_eq!(fwd.to_csv(), rev.to_csv());
        let csv = fwd.to_csv();
        assert!(csv.starts_with("config,bench,class,"));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("a,x,INT,1.0"));
        assert!(lines[2].starts_with("a,y,"));
        assert!(lines[3].starts_with("b,x,FP,1.5"));
    }

    #[test]
    fn metric_names_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        assert_eq!(Metric::parse("no_such_metric"), None);
        let r = rr("c", "b", false, 1.25);
        assert_eq!(Metric::Ipc.of(&r), 1.25);
        assert_eq!(Metric::Nready.of(&r), 1.0);
    }
}
