//! Steadiness mode: run one workload K times with consecutive seeds, each
//! run in its own process as the benchmark driver runs it, and summarize
//! every metric: median, quartiles, spread (IQR ÷ median), and whether the
//! medians of the first and second halves agree within the metric's bound
//! from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde::json::Value;

use crate::{num, obj, stats, Args};

/// `end_to_end` bounds from `BENCHMARK.json` in the working directory
/// (empty when there is none).
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Some(Value::Arr(metrics)) =
        serde::json::parse(&text).and_then(|v| v.get("end_to_end").cloned())
    else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|m| match (m.get("name"), m.get("bound")) {
            (Some(Value::Str(n)), Some(Value::Num(b))) => Some((n.clone(), *b)),
            _ => None,
        })
        .collect()
}

pub fn run(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let bounds = bounds();
    let mut series: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let seeds: Vec<u64> = (0..runs as u64).map(|i| args.seed + i).collect();
    for (i, seed) in seeds.iter().enumerate() {
        let output = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", exe.display()))?;
        if !output.status.success() {
            return Err(format!(
                "seed {seed}: the run exited with {}",
                output.status
            ));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let last = text.lines().last().unwrap_or_default();
        let result =
            serde::json::parse(last).ok_or_else(|| format!("seed {seed}: bad result line"))?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("seed {seed}: failed its correctness check: {last}"));
        }
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("seed {seed}: no metrics"));
        };
        for (name, m) in metrics {
            if let (Some(Value::Num(v)), Some(Value::Str(unit))) = (m.get("value"), m.get("unit")) {
                let e = series
                    .entry(name.clone())
                    .or_insert((unit.clone(), Vec::new()));
                e.1.push(*v);
            }
        }
        eprintln!("steadiness: run {}/{runs} (seed {seed}) done", i + 1);
    }

    println!(
        "{:<26} {:>12} {:>12} {:>12} {:>8} {:>6} {:>8}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound", "halves"
    );
    let mut summary = Vec::new();
    for (name, (unit, values)) in &series {
        let [q1, median, q3] = if values.len() >= 2 {
            stats::quartiles(values)
        } else {
            [values[0]; 3]
        };
        let spread = (q3 - q1) / median.abs();
        let half = values.len() / 2;
        let halves = if half == 0 {
            0.0
        } else {
            let (a, b) = (
                stats::median(&values[..half]),
                stats::median(&values[half..]),
            );
            (b - a).abs() / a.abs()
        };
        let bound = bounds.get(name).copied();
        let verdict = match bound {
            None => "-".to_string(),
            Some(b) => format!(
                "spread {} (target ≤ {:.3}), halves {}",
                if spread <= b / 3.0 {
                    "steady"
                } else if spread <= b {
                    "within bound"
                } else {
                    "TOO WIDE"
                },
                b / 3.0,
                if halves <= b { "agree" } else { "DISAGREE" },
            ),
        };
        println!(
            "{name:<26} {q1:>12.4} {median:>12.4} {q3:>12.4} {spread:>8.4} {:>6} {halves:>8.4}  {verdict}",
            bound.map_or("-".into(), |b| b.to_string()),
        );
        summary.push((
            name.as_str(),
            obj(vec![
                ("unit", Value::Str(unit.clone())),
                ("q1", Value::Num(q1)),
                ("median", Value::Num(median)),
                ("q3", Value::Num(q3)),
                ("spread", Value::Num(spread)),
                ("halves_diff", Value::Num(halves)),
                ("bound", bound.map_or(Value::Null, Value::Num)),
                (
                    "values",
                    Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                ),
            ]),
        ));
    }
    let line = obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("runs", num(runs)),
        ("seeds", Value::Arr(seeds.iter().map(|s| num(*s)).collect())),
        ("metrics", obj(summary)),
    ]);
    println!("{}", line.to_compact_string());
    Ok(())
}
