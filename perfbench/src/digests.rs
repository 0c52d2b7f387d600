//! Committed expected rows, `(config, bench, budget) → (cycles, committed)`,
//! for every job any workload can run. A simulated row that disagrees with
//! its digest, or has none, is a failed operation.

use std::collections::HashMap;
use std::path::Path;

use ring_clustered::sim::{Budget, Plan, RunResult, Session};
use serde::json::Value;

use crate::{host, serve_mixed, sweep};

const COMMITTED: &str = include_str!("../digests.txt");

type Key = (String, String, u64, u64);

pub struct Digests {
    rows: HashMap<Key, (u64, u64)>,
}

impl Digests {
    pub fn committed() -> Digests {
        Digests::parse(COMMITTED).expect("the committed digests parse")
    }

    /// One row per line: `config bench warmup measure cycles committed`;
    /// blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut rows = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| {
                f[i].parse::<u64>()
                    .map_err(|_| format!("digest line {}: bad number '{}'", n + 1, f[i]))
            };
            if f.len() != 6 {
                return Err(format!("digest line {}: expected 6 fields", n + 1));
            }
            let key = (f[0].to_string(), f[1].to_string(), num(2)?, num(3)?);
            rows.insert(key, (num(4)?, num(5)?));
        }
        Ok(Digests { rows })
    }

    #[cfg(test)]
    pub fn contains(&self, config: &str, bench: &str, budget: &Budget) -> bool {
        let key = (config.into(), bench.into(), budget.warmup, budget.measure);
        self.rows.contains_key(&key)
    }

    fn matches(&self, config: &str, bench: &str, budget: &Budget, got: (u64, u64)) -> bool {
        let key = (config.into(), bench.into(), budget.warmup, budget.measure);
        self.rows.get(&key) == Some(&got)
    }

    /// Whether `row`, simulated under `budget`, matches its digest.
    pub fn check(&self, row: &RunResult, budget: &Budget) -> bool {
        self.matches(&row.config, &row.bench, budget, (row.cycles, row.committed))
    }

    /// [`Digests::check`] for a row as `rcmc serve` sends it.
    pub fn check_value(&self, row: &Value, budget: &Budget) -> bool {
        let text = |k: &str| match row.get(k) {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        };
        let count = |k: &str| match row.get(k) {
            Some(Value::Num(n)) => Some(*n as u64),
            _ => None,
        };
        match (
            text("config"),
            text("bench"),
            count("cycles"),
            count("committed"),
        ) {
            (Some(c), Some(b), Some(cy), Some(co)) => self.matches(c, b, budget, (cy, co)),
            _ => false,
        }
    }
}

/// Every plan whose rows the digests cover.
pub fn plans() -> Vec<Plan> {
    let mut plans = vec![sweep::paper_plan(), sweep::stall_plan()];
    plans.extend((0..serve_mixed::LOOKUPS.len()).map(serve_mixed::lookup_plan));
    plans.push(serve_mixed::fresh_space_plan());
    plans
}

/// Simulate every job of [`plans`] and write the digest file to `path`.
pub fn write(path: &Path) -> Result<(), String> {
    let session = Session::ephemeral().with_jobs(host::nproc());
    let mut lines = Vec::new();
    for plan in plans() {
        let budget = plan.budget.expect("benchmark plans fix their budget");
        eprintln!("digests: simulating plan '{}'", plan.name);
        for r in session.run(&plan)?.rows() {
            lines.push(format!(
                "{} {} {} {} {} {}",
                r.config, r.bench, budget.warmup, budget.measure, r.cycles, r.committed
            ));
        }
    }
    lines.sort();
    lines.dedup();
    let text = format!(
        "# Expected rows of every rcmc-perfbench job:\n\
         # config bench warmup measure cycles committed\n\
         # Regenerate (only when the timing model changes on purpose) with\n\
         #   rcmc-perfbench --write-digests perfbench/digests.txt\n{}\n",
        lines.join("\n")
    );
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("digests: wrote {} rows to {}", lines.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cycles: u64, committed: u64) -> RunResult {
        RunResult {
            config: "Ring_8clus_1bus_2IW".into(),
            bench: "swim".into(),
            fp: true,
            ipc: committed as f64 / cycles as f64,
            comms_per_insn: 0.0,
            dist_per_comm: 0.0,
            wait_per_comm: 0.0,
            nready: 0.0,
            dispatch_shares: vec![1.0],
            branch_miss_rate: 0.0,
            committed,
            cycles,
        }
    }

    #[test]
    fn a_perturbed_digest_counts_as_a_failure() {
        let budget = Budget {
            warmup: 10,
            measure: 100,
        };
        let good =
            Digests::parse("# c b w m cycles committed\nRing_8clus_1bus_2IW swim 10 100 250 101\n")
                .unwrap();
        let perturbed = Digests::parse("Ring_8clus_1bus_2IW swim 10 100 251 101\n").unwrap();
        let r = row(250, 101);
        assert!(good.check(&r, &budget));
        assert!(!perturbed.check(&r, &budget));
        // The same row under another budget has no digest: also a failure.
        let other = Budget {
            warmup: 10,
            measure: 200,
        };
        assert!(!good.check(&r, &other));
        // Rows as serve sends them are checked the same way.
        let v = serde::Serialize::to_value(&r);
        assert!(good.check_value(&v, &budget));
        assert!(!perturbed.check_value(&v, &budget));
        assert!(Digests::parse("Ring swim 10 100 x 1\n").is_err());
    }

    #[test]
    fn committed_digests_cover_every_job() {
        let d = Digests::committed();
        for plan in plans() {
            let budget = plan.budget.unwrap();
            let (cfgs, benches) = plan.resolve_in(None).unwrap();
            for c in &cfgs {
                for b in &benches {
                    assert!(
                        d.contains(&c.name, b, &budget),
                        "no digest for {} {b}",
                        c.name
                    );
                }
            }
        }
    }
}
