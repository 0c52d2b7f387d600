//! Declarative experiment plans.
//!
//! A [`Plan`] is a serializable description of an experiment: which
//! configurations (named presets, whole paper grids, or ad-hoc
//! topology/steering/shape combinations), which benchmarks, what
//! instruction budget, and which derived-metric reports to render from
//! the results — what to simulate, never how: the worker count belongs
//! to the executing session. Plans are plain data — they can be built in
//! code with the builder methods, round-tripped through JSON
//! ([`Plan::to_json`] / [`Plan::from_json`]), checked into a repository as
//! spec files, or sent over a pipe to `rcmc serve`. A
//! [`crate::session::Session`] executes them.
//!
//! Spec-file shape (all fields except `name` and `configs` optional):
//!
//! ```json
//! {
//!   "name": "ring-vs-conv",
//!   "configs": [
//!     {"name": "Ring_8clus_1bus_2IW"},
//!     {"topology": "conv", "clusters": 8, "iw": 2, "buses": 1}
//!   ],
//!   "benches": ["swim", "gzip", "mcf"],
//!   "budget": {"warmup": 10000, "measure": 50000},
//!   "reports": [
//!     {"kind": "grouped", "metric": "ipc"},
//!     {"kind": "speedup",
//!      "pairs": [{"num": "Ring_8clus_1bus_2IW", "den": "Conv_8clus_1bus_2IW",
//!                 "label": "8 clusters, 1 bus"}]}
//!   ]
//! }
//! ```
//!
//! A config entry may instead name a whole grid: `{"group": "table3"}`
//! (also `fig12`, `ssa`, `topology`, `steering-cross`) — that is how every
//! paper figure is expressed as a plan value, reports included (see
//! [`crate::experiments::plans`]). The grids are themselves lists of
//! axes-form entries ([`config::groups`]), and a `{"name": ...}` entry is
//! one of their rows, so every configuration — preset, grid row, family or
//! overridden variant — is built by one function, [`ConfigSpec::resolve`].
//!
//! Axes-form entries additionally compose with the machine registry
//! ([`crate::machines`]) and per-field overrides:
//!
//! ```json
//! {"machine": "wide", "topology": "conv",
//!  "overrides": {"rob": 256, "copy_release": "on_read"}}
//! ```
//!
//! `"machine"` selects a named family whose override entries (and
//! memory latency) are applied after topology/steering pairing, and whose
//! default cluster/width/bus axes fill in any the entry leaves unset;
//! `"overrides"` then sets individual whitelisted fields
//! ([`rcmc_core::config::OVERRIDE_KEYS`]) by key.
//! Both tag the configuration name deterministically (`~m:wide`, `~rob256`
//! in sorted key order). The tags are display labels that reports
//! reference; a memoized row is keyed by the resolved configuration's
//! content (`runner::store_name`), so an override that changes the
//! machine never reads a preset row, and one that restates a default
//! shares it. `"machine": "paper2005"` with no overrides is the identity
//! and resolves byte-identical to the preset.

use rcmc_core::{Steering, Topology};
use serde::json::Value;

use crate::config::{self, SimConfig};
use crate::machines;
use crate::report;
use crate::resultset::{Metric, ResultSet};
use crate::runner::{all_bench_names, Budget, Workload};

/// One entry of [`Plan::configs`]: a configuration group, a named preset,
/// or an ad-hoc axes combination. Exactly one of the three forms may be
/// used per entry:
///
/// * `group` — a whole paper grid (`table3`, `fig12`, `ssa`, `topology`,
///   `steering-cross`; see [`config::groups`]);
/// * `name` — one known configuration by its display name;
/// * axes — any subset of `topology`/`steering`/`clusters`/`iw`/`buses`/
///   `hop_latency`, the rest defaulting to the paper's
///   `Ring_8clus_1bus_2IW` design point (with the topology's default
///   steering). Only this form composes with `machine` (a registry family
///   delta, whose default axes fill in unset `clusters`/`iw`/`buses`) and
///   `overrides` (whitelisted `CoreConfig` fields by key); both tag the
///   resolved name (`~m:wide`, `~rob256`) as a display label (memoized
///   rows are keyed by the configuration's content, not its name).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigSpec {
    /// Expand to a whole configuration grid.
    pub group: Option<String>,
    /// Resolve a known configuration by display name.
    pub name: Option<String>,
    /// Machine-family name from the registry ([`crate::machines`]).
    pub machine: Option<String>,
    /// Interconnect topology spelling (`ring|conv|crossbar|mesh|hier`).
    pub topology: Option<String>,
    /// Steering-policy spelling (`ringdep|dcount|ssa`).
    pub steering: Option<String>,
    /// Cluster count.
    pub clusters: Option<usize>,
    /// Per-class issue width.
    pub iw: Option<usize>,
    /// Buses / ports per cluster.
    pub buses: Option<usize>,
    /// Cycles per interconnect hop (default 1; ≠1 gets the `_Ncyclehop`
    /// name suffix, as in §4.6).
    pub hop_latency: Option<u32>,
    /// Whitelisted `CoreConfig` overrides (`rcmc_core::OVERRIDE_KEYS`),
    /// applied (and name-tagged) in sorted key order regardless of spec
    /// order. Spec order is preserved here for faithful round-trips.
    pub overrides: Vec<(String, Value)>,
}

impl ConfigSpec {
    /// A spec naming one known configuration.
    pub fn named(name: impl Into<String>) -> ConfigSpec {
        ConfigSpec {
            name: Some(name.into()),
            ..ConfigSpec::default()
        }
    }

    /// A spec expanding to a whole grid.
    pub fn group(group: impl Into<String>) -> ConfigSpec {
        ConfigSpec {
            group: Some(group.into()),
            ..ConfigSpec::default()
        }
    }

    /// An axes-form spec from typed axes (each `None` takes the
    /// `Ring_8clus_1bus_2IW` default for that axis, or the topology's
    /// default steering): the one `Topology`/`Steering` → spelling map.
    pub fn axes(
        topology: Option<Topology>,
        steering: Option<Steering>,
        clusters: Option<usize>,
        iw: Option<usize>,
        buses: Option<usize>,
        hop_latency: Option<u32>,
    ) -> ConfigSpec {
        ConfigSpec {
            topology: topology.map(|t| config::topology_name(t).to_ascii_lowercase()),
            steering: steering.map(|s| config::steering_name(s).to_ascii_lowercase()),
            clusters,
            iw,
            buses,
            hop_latency,
            ..ConfigSpec::default()
        }
    }

    /// A spec selecting a machine family on its default axes.
    pub fn for_machine(machine: impl Into<String>) -> ConfigSpec {
        ConfigSpec {
            machine: Some(machine.into()),
            ..ConfigSpec::default()
        }
    }

    /// Append one override entry (a whitelisted `CoreConfig` field by key;
    /// applied and name-tagged in sorted key order at resolve time).
    pub fn with_override(mut self, key: impl Into<String>, value: Value) -> ConfigSpec {
        self.overrides.push((key.into(), value));
        self
    }

    /// Expand this entry into concrete configurations.
    pub fn resolve(&self) -> Result<Vec<SimConfig>, String> {
        let axes = self.topology.is_some()
            || self.steering.is_some()
            || self.clusters.is_some()
            || self.iw.is_some()
            || self.buses.is_some()
            || self.hop_latency.is_some();
        // `machine`/`overrides` modify a built axes configuration, so like
        // the axes fields they are meaningless on (and rejected with) the
        // `group` and `name` forms.
        let modifier = if self.machine.is_some() {
            Some("'machine'")
        } else if !self.overrides.is_empty() {
            Some("'overrides'")
        } else {
            None
        };
        match (&self.group, &self.name) {
            (Some(_), Some(_)) => Err("config entry has both 'group' and 'name'".to_string()),
            (Some(g), None) if axes => Err(format!(
                "config group '{g}' cannot be combined with axes fields"
            )),
            (Some(g), None) if modifier.is_some() => Err(format!(
                "config group '{g}' cannot be combined with {}",
                modifier.unwrap()
            )),
            (Some(g), None) => expand_group(g),
            (None, Some(n)) if axes => Err(format!(
                "config name '{n}' cannot be combined with axes fields"
            )),
            (None, Some(n)) if modifier.is_some() => Err(format!(
                "config name '{n}' cannot be combined with {}",
                modifier.unwrap()
            )),
            (None, Some(n)) => config::find_config(n)
                .map(|c| vec![c])
                .ok_or_else(|| format!("unknown configuration '{n}' (see `rcmc list`)")),
            (None, None) => {
                let machine = match &self.machine {
                    Some(m) => Some(machines::find(m).ok_or_else(|| {
                        format!(
                            "unknown machine '{m}' (one of: {})",
                            machines::names().join(" | ")
                        )
                    })?),
                    None => None,
                };
                let topology = match &self.topology {
                    Some(t) => config::parse_topology(t).ok_or_else(|| {
                        format!("unknown topology '{t}' (ring | conv | crossbar | mesh | hier)")
                    })?,
                    None => Topology::Ring,
                };
                let steering = match &self.steering {
                    Some(s) => config::parse_steering(s).ok_or_else(|| {
                        format!("unknown steering '{s}' (ringdep | dcount | ssa)")
                    })?,
                    None => config::default_steering(topology),
                };
                // A family seeds the axes the spec leaves unset (a 6-wide
                // machine defaults to its own width, not the paper's 2).
                let (def_clusters, def_iw, def_buses) =
                    machine.map_or((8, 2, 1), |m| (m.clusters, m.iw, m.buses));
                let mut c = config::make_pair(
                    topology,
                    steering,
                    self.clusters.unwrap_or(def_clusters),
                    self.iw.unwrap_or(def_iw),
                    self.buses.unwrap_or(def_buses),
                );
                if let Some(hop) = self.hop_latency {
                    if hop != 1 {
                        c.core.hop_latency = hop;
                        c.name = format!("{}_{hop}cyclehop", c.name);
                    }
                }
                // Non-baseline families resize the core through their
                // override entries (untagged: the family tag names them
                // all) and the memory latency, then tag the name;
                // `paper2005` is the guarded identity path (byte-identical
                // configuration, untagged name).
                if let Some(m) = machine.filter(|m| !m.is_baseline()) {
                    for &(key, value) in m.overrides {
                        c.core
                            .apply_override(key, &Value::Num(value))
                            .map_err(|e| format!("machine '{}': {e}", m.name))?;
                    }
                    if let Some(latency) = m.mem_latency {
                        c.mem.mem_latency = latency;
                    }
                    c.name = format!("{}~m:{}", c.name, m.name);
                }
                // Overrides apply (and tag) in sorted key order, so two
                // specs listing the same map in different order resolve to
                // the same name.
                let mut sorted: Vec<&(String, Value)> = self.overrides.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                for (key, value) in sorted {
                    let tag = c
                        .core
                        .apply_override(key, value)
                        .map_err(|e| format!("invalid configuration {}: {e}", c.name))?;
                    c.name = format!("{}~{key}{tag}", c.name);
                }
                c.core
                    .validate()
                    .map_err(|e| format!("invalid configuration {}: {e}", c.name))?;
                Ok(vec![c])
            }
        }
    }

    fn to_value(&self) -> Value {
        let mut m = Vec::new();
        let mut s = |k: &str, v: &Option<String>| {
            if let Some(v) = v {
                m.push((k.to_string(), Value::Str(v.clone())));
            }
        };
        s("group", &self.group);
        s("name", &self.name);
        s("machine", &self.machine);
        s("topology", &self.topology);
        s("steering", &self.steering);
        for (k, v) in [
            ("clusters", self.clusters.map(|v| v as f64)),
            ("iw", self.iw.map(|v| v as f64)),
            ("buses", self.buses.map(|v| v as f64)),
            ("hop_latency", self.hop_latency.map(|v| v as f64)),
        ] {
            if let Some(v) = v {
                m.push((k.to_string(), Value::Num(v)));
            }
        }
        if !self.overrides.is_empty() {
            m.push(("overrides".to_string(), Value::Obj(self.overrides.clone())));
        }
        Value::Obj(m)
    }

    fn from_value(v: &Value) -> Result<ConfigSpec, String> {
        let Value::Obj(members) = v else {
            return Err("config entry must be a JSON object".to_string());
        };
        reject_duplicate_keys(members, "config-entry")?;
        let mut spec = ConfigSpec::default();
        for (k, v) in members {
            match k.as_str() {
                "group" => spec.group = Some(str_field(v, k)?),
                "name" => spec.name = Some(str_field(v, k)?),
                "machine" => spec.machine = Some(str_field(v, k)?),
                "topology" => spec.topology = Some(str_field(v, k)?),
                "steering" => spec.steering = Some(str_field(v, k)?),
                "clusters" => spec.clusters = Some(uint_field(v, k)? as usize),
                "iw" => spec.iw = Some(uint_field(v, k)? as usize),
                "buses" => spec.buses = Some(uint_field(v, k)? as usize),
                "hop_latency" => spec.hop_latency = Some(uint_field(v, k)? as u32),
                "overrides" => {
                    let Value::Obj(entries) = v else {
                        return Err("'overrides' must be a JSON object".to_string());
                    };
                    reject_duplicate_keys(entries, "override")?;
                    // Unknown keys, malformed values and a single knob past
                    // the trace run-ahead are parse errors, not deferred to
                    // resolve(): a typo'd knob must never silently run the
                    // un-overridden configuration. The dry-run applies onto
                    // a scratch config, so range interactions still get
                    // checked (once) at resolve.
                    for (ok, ov) in entries {
                        let mut scratch = rcmc_core::CoreConfig::default();
                        scratch
                            .apply_override(ok, ov)
                            .and_then(|_| scratch.check_run_ahead())
                            .map_err(|e| format!("bad config-entry override: {e}"))?;
                        spec.overrides.push((ok.clone(), ov.clone()));
                    }
                }
                other => return Err(format!("unknown config-entry key '{other}'")),
            }
        }
        Ok(spec)
    }
}

/// Expand a group name into its configuration grid by resolving each of
/// its axes entries ([`config::groups`]).
fn expand_group(group: &str) -> Result<Vec<SimConfig>, String> {
    let (_, specs) = config::groups()
        .iter()
        .find(|(g, _)| g.eq_ignore_ascii_case(group))
        .ok_or_else(|| {
            let names = config::group_names().join(" | ");
            format!("unknown config group '{group}' ({names})")
        })?;
    specs.iter().map(|s| Ok(s.resolve()?.remove(0))).collect()
}

/// One row of a `speedup` report: the geometric-mean IPC ratio of `num`
/// over `den`, shown as `label` (default `"num / den"`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpeedupPair {
    /// Numerator configuration.
    pub num: String,
    /// Denominator configuration.
    pub den: String,
    /// Row name; `None` renders `"num / den"`.
    pub label: Option<String>,
}

impl SpeedupPair {
    /// A pair rendered under its own row name.
    pub fn labelled(
        label: impl Into<String>,
        num: impl Into<String>,
        den: impl Into<String>,
    ) -> SpeedupPair {
        SpeedupPair {
            num: num.into(),
            den: den.into(),
            label: Some(label.into()),
        }
    }

    fn to_value(&self) -> Value {
        let mut m = vec![
            ("num".to_string(), Value::Str(self.num.clone())),
            ("den".to_string(), Value::Str(self.den.clone())),
        ];
        if let Some(label) = &self.label {
            m.push(("label".to_string(), Value::Str(label.clone())));
        }
        Value::Obj(m)
    }

    /// Parse one `{"num", "den", "label"?}` pair, as strictly as every
    /// other spec object: a typo'd `"lable"` must not quietly render an
    /// unlabelled row.
    fn from_value(v: &Value) -> Result<SpeedupPair, String> {
        let Value::Obj(members) = v else {
            return Err("speedup pair must be a JSON object".to_string());
        };
        reject_duplicate_keys(members, "pair")?;
        let (mut num, mut den, mut label) = (None, None, None);
        for (k, v) in members {
            match k.as_str() {
                "num" => num = Some(str_field(v, k)?),
                "den" => den = Some(str_field(v, k)?),
                "label" => label = Some(str_field(v, k)?),
                other => return Err(format!("unknown pair key '{other}'")),
            }
        }
        Ok(SpeedupPair {
            num: num.ok_or("pair missing 'num'")?,
            den: den.ok_or("pair missing 'den'")?,
            label,
        })
    }
}

/// A derived-metric report to render from a plan's results.
///
/// Kinds: `grouped` (arithmetic AVERAGE/INT/FP means of `metric`),
/// `geomean` (geometric means), `speedup` (geometric-mean IPC ratios of
/// the `pairs`), `distribution` (per-benchmark dispatch shares across
/// clusters, one table per configuration), `matrix` (the AVERAGE of
/// `metric` for `configs` laid out row-major under `rows` × `cols`
/// labels), `per-bench` (long-form per-benchmark tables), `csv` (the full
/// result set as CSV).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReportSpec {
    /// Report kind (see type docs).
    pub kind: String,
    /// Table title; a kind-specific default if omitted.
    pub title: Option<String>,
    /// Metric for `grouped`/`geomean`/`matrix` (default `ipc`).
    pub metric: Option<String>,
    /// Configuration subset, in order; empty = every plan configuration.
    pub configs: Vec<String>,
    /// Configuration pairs for `speedup`.
    pub pairs: Vec<SpeedupPair>,
    /// Row labels for `matrix`.
    pub rows: Vec<String>,
    /// Column labels for `matrix`.
    pub cols: Vec<String>,
}

impl ReportSpec {
    /// A grouped-mean report of `metric`.
    pub fn grouped(metric: Metric) -> ReportSpec {
        ReportSpec {
            kind: "grouped".into(),
            metric: Some(metric.name().into()),
            ..ReportSpec::default()
        }
    }

    /// A speedup report over `(num, den)` configuration pairs.
    pub fn speedup(pairs: Vec<(String, String)>) -> ReportSpec {
        let pairs = pairs.into_iter().map(|(num, den)| SpeedupPair {
            num,
            den,
            label: None,
        });
        ReportSpec::speedup_labelled(pairs.collect())
    }

    /// A speedup report over pairs that may carry their own row names.
    pub fn speedup_labelled(pairs: Vec<SpeedupPair>) -> ReportSpec {
        ReportSpec {
            kind: "speedup".into(),
            pairs,
            ..ReportSpec::default()
        }
    }

    /// Per-benchmark dispatch distribution tables for `configs`.
    pub fn distribution(configs: Vec<String>) -> ReportSpec {
        ReportSpec {
            kind: "distribution".into(),
            configs,
            ..ReportSpec::default()
        }
    }

    /// The AVERAGE of `metric` for `configs`, laid out row-major under
    /// `rows` × `cols` labels.
    pub fn matrix(
        metric: Metric,
        rows: Vec<String>,
        cols: Vec<String>,
        configs: Vec<String>,
    ) -> ReportSpec {
        ReportSpec {
            kind: "matrix".into(),
            metric: Some(metric.name().into()),
            configs,
            rows,
            cols,
            ..ReportSpec::default()
        }
    }

    /// A CSV dump of the whole result set.
    pub fn csv() -> ReportSpec {
        ReportSpec {
            kind: "csv".into(),
            ..ReportSpec::default()
        }
    }

    /// Attach a title.
    pub fn titled(mut self, title: impl Into<String>) -> ReportSpec {
        self.title = Some(title.into());
        self
    }

    /// Restrict the report to `configs`, in order.
    pub fn over(mut self, configs: Vec<String>) -> ReportSpec {
        self.configs = configs;
        self
    }

    /// Check the spec is renderable (known kind, parsable metric, pairs
    /// present where required, a full matrix).
    pub fn validate(&self) -> Result<(), String> {
        match self.kind.as_str() {
            "grouped" | "geomean" | "distribution" | "per-bench" | "csv" => {}
            "speedup" => {
                if self.pairs.is_empty() {
                    return Err("'speedup' report needs at least one {num, den} pair".into());
                }
            }
            "matrix" => {
                let cells = self.rows.len() * self.cols.len();
                if cells == 0 || self.configs.len() != cells {
                    return Err(format!(
                        "'matrix' report needs one config per cell: {} rows x {} cols \
                         but {} configs",
                        self.rows.len(),
                        self.cols.len(),
                        self.configs.len()
                    ));
                }
            }
            other => {
                return Err(format!(
                    "unknown report kind '{other}' \
                     (grouped | geomean | speedup | distribution | matrix | per-bench | csv)"
                ))
            }
        }
        if let Some(m) = &self.metric {
            if Metric::parse(m).is_none() {
                let names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
                return Err(format!(
                    "unknown metric '{m}' (one of: {})",
                    names.join(" | ")
                ));
            }
        }
        Ok(())
    }

    fn title_or(&self, default: &str) -> String {
        self.title.as_deref().unwrap_or(default).to_string()
    }

    fn metric(&self) -> Metric {
        self.metric
            .as_deref()
            .and_then(Metric::parse)
            .unwrap_or(Metric::Ipc)
    }

    /// Render this report over `rs`. `config_order` is the plan's resolved
    /// configuration order (used when [`ReportSpec::configs`] is empty).
    pub fn render(&self, rs: &ResultSet, config_order: &[String]) -> Result<String, String> {
        self.validate()?;
        let configs: &[String] = if self.configs.is_empty() {
            config_order
        } else {
            &self.configs
        };
        match self.kind.as_str() {
            "grouped" | "geomean" => {
                let m = self.metric();
                let geometric = self.kind == "geomean";
                let rows: Vec<(String, report::GroupValues)> = configs
                    .iter()
                    .map(|c| {
                        let g = if geometric {
                            rs.geomean(c, |r| m.of(r))
                        } else {
                            rs.group_mean(c, |r| m.of(r))
                        };
                        (c.clone(), g)
                    })
                    .collect();
                let default_title = format!(
                    "{} {} by configuration",
                    if geometric { "Geomean" } else { "Mean" },
                    m.name()
                );
                let title = self.title_or(&default_title);
                Ok(report::render_grouped(&title, m.unit(), &rows))
            }
            "speedup" => {
                let rows: Vec<(String, report::GroupValues)> = self
                    .pairs
                    .iter()
                    .map(|p| {
                        let label = p
                            .label
                            .clone()
                            .unwrap_or_else(|| format!("{} / {}", p.num, p.den));
                        (label, rs.speedup(&p.num, &p.den))
                    })
                    .collect();
                let title = self.title_or("Geometric-mean IPC speedup");
                Ok(report::render_speedups(&title, &rows))
            }
            "distribution" => {
                let title = self.title_or("Instruction distribution across clusters");
                let tables: Vec<String> = configs
                    .iter()
                    .map(|c| report::render_distribution(&format!("{title} ({c})"), &rs.config(c)))
                    .collect();
                Ok(tables.join("\n"))
            }
            "matrix" => {
                let m = self.metric();
                let values: Vec<f64> = configs
                    .iter()
                    .map(|c| rs.group_mean(c, |r| m.of(r)).avg)
                    .collect();
                let title = self.title_or(&format!("Mean {} by row x column", m.name()));
                Ok(report::render_matrix(
                    &title, &self.rows, &self.cols, &values,
                ))
            }
            "per-bench" => {
                let mut out = String::new();
                for c in configs {
                    out.push_str(&report::render_per_benchmark(c, &rs.config(c)));
                    out.push('\n');
                }
                Ok(out)
            }
            "csv" => Ok(rs.to_csv()),
            _ => unreachable!("validated above"),
        }
    }

    fn to_value(&self) -> Value {
        let mut m = vec![("kind".to_string(), Value::Str(self.kind.clone()))];
        if let Some(t) = &self.title {
            m.push(("title".to_string(), Value::Str(t.clone())));
        }
        if let Some(metric) = &self.metric {
            m.push(("metric".to_string(), Value::Str(metric.clone())));
        }
        for (key, names) in [
            ("configs", &self.configs),
            ("rows", &self.rows),
            ("cols", &self.cols),
        ] {
            if !names.is_empty() {
                let names = names.iter().map(|n| Value::Str(n.clone())).collect();
                m.push((key.to_string(), Value::Arr(names)));
            }
        }
        if !self.pairs.is_empty() {
            let pairs = self.pairs.iter().map(SpeedupPair::to_value).collect();
            m.push(("pairs".to_string(), Value::Arr(pairs)));
        }
        Value::Obj(m)
    }

    fn from_value(v: &Value) -> Result<ReportSpec, String> {
        let Value::Obj(members) = v else {
            return Err("report entry must be a JSON object".to_string());
        };
        reject_duplicate_keys(members, "report")?;
        let mut spec = ReportSpec::default();
        for (k, v) in members {
            match k.as_str() {
                "kind" => spec.kind = str_field(v, k)?,
                "title" => spec.title = Some(str_field(v, k)?),
                "metric" => spec.metric = Some(str_field(v, k)?),
                "configs" => spec.configs = str_array(v, k)?,
                "pairs" => {
                    let Value::Arr(items) = v else {
                        return Err("'pairs' must be an array".to_string());
                    };
                    for item in items {
                        spec.pairs.push(SpeedupPair::from_value(item)?);
                    }
                }
                "rows" => spec.rows = str_array(v, k)?,
                "cols" => spec.cols = str_array(v, k)?,
                other => return Err(format!("unknown report key '{other}'")),
            }
        }
        if spec.kind.is_empty() {
            return Err("report entry missing 'kind'".to_string());
        }
        Ok(spec)
    }
}

/// A rendered report: its kind plus the text table.
#[derive(Clone, Debug, PartialEq)]
pub struct RenderedReport {
    /// The [`ReportSpec::kind`] that produced it.
    pub kind: String,
    /// The rendered text.
    pub text: String,
}

/// A declarative experiment: configurations × benchmarks × budget ×
/// derived-metric reports. See the module docs for the JSON shape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Plan {
    /// Display name (also used by `rcmc serve` responses).
    pub name: String,
    /// What to simulate (groups, named presets, ad-hoc axes).
    pub configs: Vec<ConfigSpec>,
    /// Benchmarks to run; empty = the whole 26-program suite.
    pub benches: Vec<String>,
    /// Instruction window; `None` = the env-derived [`Budget::default`].
    pub budget: Option<Budget>,
    /// Reports to render from the results.
    pub reports: Vec<ReportSpec>,
}

impl Plan {
    /// An empty plan named `name`.
    pub fn new(name: impl Into<String>) -> Plan {
        Plan {
            name: name.into(),
            ..Plan::default()
        }
    }

    /// Append a configuration group (`table3`, `fig12`, `ssa`, `topology`,
    /// `steering-cross`).
    pub fn group(mut self, group: impl Into<String>) -> Plan {
        self.configs.push(ConfigSpec::group(group));
        self
    }

    /// Append one known configuration by name.
    pub fn config_named(mut self, name: impl Into<String>) -> Plan {
        self.configs.push(ConfigSpec::named(name));
        self
    }

    /// Append an ad-hoc axes configuration (each `None` takes the
    /// `Ring_8clus_1bus_2IW` default for that axis).
    pub fn config_axes(
        self,
        topology: Option<Topology>,
        steering: Option<Steering>,
        clusters: Option<usize>,
        iw: Option<usize>,
        buses: Option<usize>,
        hop_latency: Option<u32>,
    ) -> Plan {
        self.config(ConfigSpec::axes(
            topology,
            steering,
            clusters,
            iw,
            buses,
            hop_latency,
        ))
    }

    /// Append a raw [`ConfigSpec`].
    pub fn config(mut self, spec: ConfigSpec) -> Plan {
        self.configs.push(spec);
        self
    }

    /// Append one benchmark.
    pub fn bench(mut self, bench: impl Into<String>) -> Plan {
        self.benches.push(bench.into());
        self
    }

    /// Replace the benchmark list (empty = whole suite).
    pub fn benches<I: IntoIterator<Item = S>, S: Into<String>>(mut self, benches: I) -> Plan {
        self.benches = benches.into_iter().map(Into::into).collect();
        self
    }

    /// Set the instruction window.
    pub fn budget(mut self, budget: Budget) -> Plan {
        self.budget = Some(budget);
        self
    }

    /// Append a report.
    pub fn report(mut self, spec: ReportSpec) -> Plan {
        self.reports.push(spec);
        self
    }

    /// Expand every config entry, deduplicating by display name (first
    /// occurrence wins, as the grids deliberately overlap on the Table 3
    /// rows).
    pub fn resolve_configs(&self) -> Result<Vec<SimConfig>, String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for spec in &self.configs {
            for c in spec.resolve()? {
                if seen.insert(c.name.clone()) {
                    out.push(c);
                }
            }
        }
        if out.is_empty() {
            return Err(format!(
                "plan '{}' resolves to no configurations",
                self.name
            ));
        }
        Ok(out)
    }

    /// The workload list (the whole suite if none given), deduplicated
    /// (first occurrence wins, mirroring configuration dedup — a repeated
    /// name must not simulate the pair twice or inflate progress totals),
    /// each name resolved once ([`Workload::resolve`]): a name that is not
    /// in the built-in suite resolves if `db` holds an imported trace
    /// under it.
    fn resolve_workloads(&self, db: Option<&rcmc_emu::TraceDb>) -> Result<Vec<Workload>, String> {
        let names: Vec<&str> = if self.benches.is_empty() {
            all_bench_names()
        } else {
            let mut seen = std::collections::HashSet::new();
            self.benches
                .iter()
                .map(String::as_str)
                .filter(|b| seen.insert(*b))
                .collect()
        };
        names
            .into_iter()
            .map(|b| Workload::resolve(b, db))
            .collect()
    }

    /// Resolve and check the whole plan in one pass: expand the
    /// configuration grid, resolve the benchmark list, verify every report
    /// (and that it only references configurations this plan actually
    /// runs). Returns the resolved `(configs, benches)` so
    /// executors do the expansion exactly once. Benchmarks resolve against
    /// the process-default trace store; see [`Plan::resolve_in`].
    pub fn resolve(&self) -> Result<(Vec<SimConfig>, Vec<String>), String> {
        self.resolve_in(Some(crate::runner::default_trace_db()))
    }

    /// [`Plan::resolve`] against an explicit trace store (imported traces
    /// stored there count as known workloads).
    pub fn resolve_in(
        &self,
        db: Option<&rcmc_emu::TraceDb>,
    ) -> Result<(Vec<SimConfig>, Vec<String>), String> {
        let (configs, workloads) = self.resolve_workloads_in(db)?;
        let names = workloads.iter().map(|w| w.name().to_string()).collect();
        Ok((configs, names))
    }

    /// [`Plan::resolve_in`], keeping each resolved [`Workload`]: what a
    /// request submits, so its jobs run the suite programs and the open
    /// imported-trace files resolved here (the
    /// [`Session`](crate::session::Session) running the plan passes its
    /// own trace store).
    pub fn resolve_workloads_in(
        &self,
        db: Option<&rcmc_emu::TraceDb>,
    ) -> Result<(Vec<SimConfig>, Vec<Workload>), String> {
        let configs = self.resolve_configs()?;
        let workloads = self.resolve_workloads(db)?;
        // A typo'd name in a report would otherwise render silently as a
        // neutral speedup / zero mean — the worst failure mode for a
        // reproduction harness — so reports are checked against the
        // resolved grid up front, before anything simulates.
        let names: std::collections::HashSet<&str> =
            configs.iter().map(|c| c.name.as_str()).collect();
        for r in &self.reports {
            r.validate()?;
            for c in r
                .configs
                .iter()
                .chain(r.pairs.iter().flat_map(|p| [&p.num, &p.den]))
            {
                if !names.contains(c.as_str()) {
                    return Err(format!(
                        "report '{}' references configuration '{c}', \
                         which this plan does not run",
                        r.kind
                    ));
                }
            }
        }
        Ok((configs, workloads))
    }

    /// [`Plan::resolve`], discarding the resolution.
    pub fn validate(&self) -> Result<(), String> {
        self.resolve().map(|_| ())
    }

    /// Render every report of the plan over `rs`.
    pub fn render_reports(&self, rs: &ResultSet) -> Result<Vec<RenderedReport>, String> {
        let order: Vec<String> = self
            .resolve_configs()?
            .into_iter()
            .map(|c| c.name)
            .collect();
        self.render_reports_for(rs, &order)
    }

    /// [`Plan::render_reports`] with an already-resolved configuration
    /// order (callers holding a [`Plan::resolve`] result skip the repeat
    /// expansion).
    pub fn render_reports_for(
        &self,
        rs: &ResultSet,
        order: &[String],
    ) -> Result<Vec<RenderedReport>, String> {
        self.reports
            .iter()
            .map(|spec| {
                Ok(RenderedReport {
                    kind: spec.kind.clone(),
                    text: spec.render(rs, order)?,
                })
            })
            .collect()
    }

    /// Every report of the plan over `rs`, joined by a blank line: what
    /// `rcmc report` prints, and one figure's block of `rcmc figures`.
    pub fn render_text(&self, rs: &ResultSet) -> Result<String, String> {
        let texts: Vec<String> = self
            .render_reports(rs)?
            .into_iter()
            .map(|r| r.text)
            .collect();
        Ok(texts.join("\n"))
    }

    /// Pretty-printed JSON spec of this plan.
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_pretty_string();
        s.push('\n');
        s
    }

    /// Parse a JSON spec. Unknown keys are hard errors, so a typo'd field
    /// cannot silently change an experiment.
    pub fn from_json(text: &str) -> Result<Plan, String> {
        let v = serde::json::parse(text).ok_or("spec is not valid JSON")?;
        Plan::from_value_strict(&v)
    }

    /// [`Plan::from_json`] over an already-parsed JSON tree (what `rcmc
    /// serve` uses for inline plan objects), with the same strict errors.
    pub fn from_value_checked(v: &Value) -> Result<Plan, String> {
        Plan::from_value_strict(v)
    }

    fn to_value(&self) -> Value {
        let mut m = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "configs".to_string(),
                Value::Arr(self.configs.iter().map(|c| c.to_value()).collect()),
            ),
        ];
        if !self.benches.is_empty() {
            m.push((
                "benches".to_string(),
                Value::Arr(self.benches.iter().map(|b| Value::Str(b.clone())).collect()),
            ));
        }
        if let Some(b) = &self.budget {
            m.push((
                "budget".to_string(),
                Value::Obj(vec![
                    ("warmup".to_string(), Value::Num(b.warmup as f64)),
                    ("measure".to_string(), Value::Num(b.measure as f64)),
                ]),
            ));
        }
        if !self.reports.is_empty() {
            m.push((
                "reports".to_string(),
                Value::Arr(self.reports.iter().map(|r| r.to_value()).collect()),
            ));
        }
        Value::Obj(m)
    }

    fn from_value_strict(v: &Value) -> Result<Plan, String> {
        let Value::Obj(members) = v else {
            return Err("plan spec must be a JSON object".to_string());
        };
        reject_duplicate_keys(members, "plan")?;
        let mut plan = Plan::default();
        for (k, v) in members {
            match k.as_str() {
                "name" => plan.name = str_field(v, k)?,
                "configs" => {
                    let Value::Arr(items) = v else {
                        return Err("'configs' must be an array".to_string());
                    };
                    for item in items {
                        plan.configs.push(ConfigSpec::from_value(item)?);
                    }
                }
                "benches" => plan.benches = str_array(v, k)?,
                "budget" => {
                    let Value::Obj(fields) = v else {
                        return Err("'budget' must be an object".to_string());
                    };
                    reject_duplicate_keys(fields, "budget")?;
                    let mut b = Budget::default();
                    for (bk, bv) in fields {
                        match bk.as_str() {
                            "warmup" => b.warmup = uint_field(bv, bk)?,
                            "measure" => b.measure = uint_field(bv, bk)?,
                            other => return Err(format!("unknown budget key '{other}'")),
                        }
                    }
                    plan.budget = Some(b);
                }
                "reports" => {
                    let Value::Arr(items) = v else {
                        return Err("'reports' must be an array".to_string());
                    };
                    for item in items {
                        plan.reports.push(ReportSpec::from_value(item)?);
                    }
                }
                other => return Err(format!("unknown plan key '{other}'")),
            }
        }
        if plan.name.is_empty() {
            return Err("plan spec missing 'name'".to_string());
        }
        if plan.configs.is_empty() {
            return Err("plan spec missing 'configs'".to_string());
        }
        Ok(plan)
    }
}

impl serde::Serialize for Plan {
    fn to_value(&self) -> Value {
        Plan::to_value(self)
    }
}

impl serde::Deserialize for Plan {
    fn from_value(v: &Value) -> Option<Self> {
        Plan::from_value_strict(v).ok()
    }
}

/// Reject objects with a repeated key: the vendored JSON tree preserves
/// duplicates, and letting the later one win would silently change the
/// experiment (e.g. a stale `"benches"` line left behind by copy-paste
/// editing) — the same mistake class the unknown-key errors exist for.
fn reject_duplicate_keys(members: &[(String, Value)], what: &str) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for (k, _) in members {
        if !seen.insert(k.as_str()) {
            return Err(format!("duplicate {what} key '{k}'"));
        }
    }
    Ok(())
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("'{key}' must be a string")),
    }
}

fn str_array(v: &Value, key: &str) -> Result<Vec<String>, String> {
    match v {
        Value::Arr(items) => items.iter().map(|i| str_field(i, key)).collect(),
        _ => Err(format!("'{key}' must be an array of strings")),
    }
}

fn uint_field(v: &Value, key: &str) -> Result<u64, String> {
    match v {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(format!("'{key}' must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_through_json() {
        let plan = Plan::new("demo")
            .group("table3")
            .config_named("Mesh_8clus_1bus_2IW")
            .config(ConfigSpec {
                topology: Some("hier".into()),
                steering: Some("ssa".into()),
                hop_latency: Some(2),
                ..ConfigSpec::default()
            })
            .benches(["swim", "gzip"])
            .budget(Budget {
                warmup: 123,
                measure: 456,
            })
            .report(ReportSpec::grouped(Metric::Nready).titled("imbalance"))
            .report(ReportSpec::speedup(vec![(
                "Ring_8clus_1bus_2IW".into(),
                "Conv_8clus_1bus_2IW".into(),
            )]))
            .report(ReportSpec::csv());
        let json = plan.to_json();
        let back = Plan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        // And through the generic serde entry points too.
        let s = serde_json::to_string_pretty(&plan).unwrap();
        let b2: Plan = serde_json::from_str(&s).unwrap();
        assert_eq!(b2, plan);
    }

    #[test]
    fn unknown_keys_and_bad_shapes_are_hard_errors() {
        assert!(Plan::from_json("{").is_err());
        assert!(Plan::from_json("[]").is_err());
        let typo =
            r#"{"name": "x", "configs": [{"name": "Ring_8clus_1bus_2IW"}], "bneches": ["swim"]}"#;
        assert!(Plan::from_json(typo).unwrap_err().contains("bneches"));
        let bad_cfg = r#"{"name": "x", "configs": [{"topologee": "ring"}]}"#;
        assert!(Plan::from_json(bad_cfg).unwrap_err().contains("topologee"));
        let no_cfg = r#"{"name": "x"}"#;
        assert!(Plan::from_json(no_cfg).unwrap_err().contains("configs"));
        let bad_budget =
            r#"{"name": "x", "configs": [{"group": "table3"}], "budget": {"measure": -5}}"#;
        assert!(Plan::from_json(bad_budget).is_err());
        // The worker count is the session's, not the plan's.
        let jobs = r#"{"name": "x", "configs": [{"group": "table3"}], "jobs": 4}"#;
        assert!(Plan::from_json(jobs)
            .unwrap_err()
            .contains("unknown plan key 'jobs'"));
    }

    #[test]
    fn duplicate_json_keys_are_hard_errors() {
        let dup_plan = r#"{"name": "x", "configs": [{"group": "table3"}], "benches": ["swim"], "benches": ["gzip"]}"#;
        assert!(Plan::from_json(dup_plan).unwrap_err().contains("benches"));
        let dup_cfg = r#"{"name": "x", "configs": [{"clusters": 4, "clusters": 8}]}"#;
        assert!(Plan::from_json(dup_cfg).unwrap_err().contains("clusters"));
        let dup_budget = r#"{"name": "x", "configs": [{"group": "table3"}], "budget": {"measure": 1, "measure": 2}}"#;
        assert!(Plan::from_json(dup_budget).unwrap_err().contains("measure"));
    }

    #[test]
    fn repeated_benches_deduplicate_like_configs() {
        let p = Plan::new("t")
            .config_named("Ring_4clus_1bus_2IW")
            .benches(["swim", "gzip", "swim"]);
        assert_eq!(p.resolve().unwrap().1, vec!["swim", "gzip"]);
    }

    #[test]
    fn budget_fields_default_individually() {
        let p = Plan::from_json(
            r#"{"name": "x", "configs": [{"group": "table3"}], "budget": {"measure": 5000}}"#,
        )
        .unwrap();
        let b = p.budget.unwrap();
        assert_eq!(b.measure, 5_000);
        assert_eq!(b.warmup, Budget::default().warmup);
    }

    #[test]
    fn groups_names_and_axes_resolve() {
        let p = Plan::new("t")
            .group("steering-cross")
            .config_named("Ring_8clus_1bus_2IW")
            .config_axes(Some(Topology::Crossbar), None, None, None, Some(2), None);
        let cfgs = p.resolve_configs().unwrap();
        // 15 cross configs (Ring_8clus_1bus_2IW deduplicates into the grid)
        // + Xbar_8clus_2bus_2IW.
        assert_eq!(cfgs.len(), 16);
        assert!(cfgs.iter().any(|c| c.name == "Xbar_8clus_2bus_2IW"));
        let names: Vec<_> = cfgs.iter().map(|c| c.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate resolved configs");
    }

    #[test]
    fn axes_defaults_are_the_paper_design_point() {
        let p = Plan::new("t").config(ConfigSpec::default());
        let cfgs = p.resolve_configs().unwrap();
        assert_eq!(cfgs.len(), 1);
        assert_eq!(cfgs[0].name, "Ring_8clus_1bus_2IW");
        // Hop latency shows up as the §4.6 suffix.
        let p2 = Plan::new("t").config(ConfigSpec {
            topology: Some("conv".into()),
            hop_latency: Some(2),
            ..ConfigSpec::default()
        });
        assert_eq!(
            p2.resolve_configs().unwrap()[0].name,
            "Conv_8clus_1bus_2IW_2cyclehop"
        );
    }

    #[test]
    fn machine_and_overrides_round_trip_through_json() {
        let plan = Plan::new("m")
            .config(
                ConfigSpec::for_machine("wide")
                    .with_override("rob", Value::Num(256.0))
                    .with_override("copy_release", Value::Str("on_read".into())),
            )
            .config(ConfigSpec {
                machine: Some("narrow".into()),
                topology: Some("conv".into()),
                ..ConfigSpec::default()
            })
            .benches(["swim"]);
        let json = plan.to_json();
        assert!(json.contains("\"machine\""), "{json}");
        assert!(json.contains("\"overrides\""), "{json}");
        let back = Plan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        back.resolve_configs().unwrap();
    }

    #[test]
    fn override_parse_errors_are_hard() {
        let base = |overrides: &str| {
            format!(
                r#"{{"name": "x", "configs": [{{"topology": "ring", "overrides": {overrides}}}]}}"#
            )
        };
        // Unknown override keys fail at parse time, listing the whitelist.
        let err = Plan::from_json(&base(r#"{"robs": 256}"#)).unwrap_err();
        assert!(err.contains("unknown override key 'robs'"), "{err}");
        // Wrong value types and nonsense values too.
        assert!(Plan::from_json(&base(r#"{"rob": "big"}"#)).is_err());
        assert!(Plan::from_json(&base(r#"{"rob": 0}"#)).is_err());
        assert!(Plan::from_json(&base(r#"{"rob": -8}"#)).is_err());
        assert!(Plan::from_json(&base(r#"{"rob": 2.5}"#)).is_err());
        // A ROB deeper than the trace run-ahead would read past the end of
        // every trace: rejected before anything resolves.
        let deep = Plan::from_json(&base(r#"{"rob": 20000}"#)).unwrap_err();
        assert!(deep.contains("RUN_AHEAD"), "{deep}");
        assert!(Plan::from_json(&base(r#"{"copy_release": "never"}"#)).is_err());
        assert!(Plan::from_json(&base(r#"{"dcount_threshold": 0}"#)).is_err());
        // Duplicate keys inside the overrides map are rejected.
        let dup = Plan::from_json(&base(r#"{"rob": 128, "rob": 256}"#)).unwrap_err();
        assert!(dup.contains("duplicate override key 'rob'"), "{dup}");
        // The overrides field must be an object.
        assert!(Plan::from_json(&base(r#"[1, 2]"#)).is_err());
        // Values that parse but break validation fail at resolve time.
        let p = Plan::from_json(&base(r#"{"regs_int": 10}"#)).unwrap();
        let err = p.resolve_configs().unwrap_err();
        assert!(err.contains("invalid configuration"), "{err}");
        assert!(err.contains("~regs_int10"), "{err}");
    }

    #[test]
    fn machine_and_override_tags_are_deterministic() {
        // paper2005 with no overrides is the identity: byte-identical name
        // and core to the preset path.
        let plain = ConfigSpec::default().resolve().unwrap().remove(0);
        let tagged = ConfigSpec::for_machine("paper2005")
            .resolve()
            .unwrap()
            .remove(0);
        assert_eq!(tagged.name, "Ring_8clus_1bus_2IW");
        assert_eq!(format!("{:?}", tagged.core), format!("{:?}", plain.core));
        // Non-baseline families tag the name and seed the unset axes from
        // the family defaults (wide: 8 clusters x 6IW x 2 buses).
        let wide = ConfigSpec::for_machine("wide").resolve().unwrap().remove(0);
        assert_eq!(wide.name, "Ring_8clus_2bus_6IW~m:wide");
        assert_eq!(wide.core.rob, 512);
        assert_eq!(wide.core.iw_int, 6);
        // Spec-pinned axes beat the family defaults.
        let wide4 = ConfigSpec {
            machine: Some("wide".into()),
            clusters: Some(4),
            ..ConfigSpec::default()
        }
        .resolve()
        .unwrap()
        .remove(0);
        assert_eq!(wide4.name, "Ring_4clus_2bus_6IW~m:wide");
        assert_eq!(wide4.core.n_clusters, 4);
        // Override tags render in sorted key order, regardless of spec
        // order, after the machine tag.
        let a = ConfigSpec::for_machine("wide")
            .with_override("rob", Value::Num(256.0))
            .with_override("copy_release", Value::Str("on_read".into()))
            .resolve()
            .unwrap()
            .remove(0);
        let b = ConfigSpec::for_machine("wide")
            .with_override("copy_release", Value::Str("at_commit".into()))
            .with_override("rob", Value::Num(256.0))
            .resolve()
            .unwrap()
            .remove(0);
        assert_eq!(
            a.name,
            "Ring_8clus_2bus_6IW~m:wide~copy_releaseon_read~rob256"
        );
        assert_eq!(a.core.rob, 256);
        assert_eq!(
            b.name,
            "Ring_8clus_2bus_6IW~m:wide~copy_releaseat_commit~rob256"
        );
        // slowmem touches only the memory model.
        let slow = ConfigSpec::for_machine("slowmem")
            .resolve()
            .unwrap()
            .remove(0);
        assert_eq!(slow.name, "Ring_8clus_1bus_2IW~m:slowmem");
        assert_eq!(slow.mem.mem_latency, 400);
        assert_eq!(format!("{:?}", slow.core), format!("{:?}", plain.core));
        // Unknown machines list the registry.
        let err = ConfigSpec::for_machine("nope").resolve().unwrap_err();
        assert!(err.contains("unknown machine 'nope'"), "{err}");
        assert!(err.contains("paper2005"), "{err}");
    }

    #[test]
    fn machine_and_overrides_reject_group_and_name_forms() {
        // The full error matrix: {group, name} x {machine, overrides} all
        // fail with the same style of message the axes fields get.
        let cases = [
            (
                ConfigSpec {
                    group: Some("table3".into()),
                    machine: Some("wide".into()),
                    ..ConfigSpec::default()
                },
                "config group 'table3' cannot be combined with 'machine'",
            ),
            (
                ConfigSpec::group("table3").with_override("rob", Value::Num(128.0)),
                "config group 'table3' cannot be combined with 'overrides'",
            ),
            (
                ConfigSpec {
                    name: Some("Ring_8clus_1bus_2IW".into()),
                    machine: Some("wide".into()),
                    ..ConfigSpec::default()
                },
                "config name 'Ring_8clus_1bus_2IW' cannot be combined with 'machine'",
            ),
            (
                ConfigSpec::named("Ring_8clus_1bus_2IW").with_override("rob", Value::Num(128.0)),
                "config name 'Ring_8clus_1bus_2IW' cannot be combined with 'overrides'",
            ),
        ];
        for (spec, want) in cases {
            let err = spec.resolve().unwrap_err();
            assert_eq!(err, want);
        }
        // Machine + overrides on the axes form is of course fine.
        ConfigSpec::for_machine("wide")
            .with_override("rob", Value::Num(128.0))
            .resolve()
            .unwrap();
    }

    #[test]
    fn conflicting_config_forms_are_rejected() {
        let both = ConfigSpec {
            group: Some("table3".into()),
            name: Some("Ring_8clus_1bus_2IW".into()),
            ..ConfigSpec::default()
        };
        assert!(both.resolve().is_err());
        let mixed = ConfigSpec {
            name: Some("Ring_8clus_1bus_2IW".into()),
            clusters: Some(4),
            ..ConfigSpec::default()
        };
        assert!(mixed.resolve().is_err());
        assert!(ConfigSpec::group("nope").resolve().is_err());
        assert!(ConfigSpec::named("nope").resolve().is_err());
    }

    #[test]
    fn only_canonical_group_names_resolve() {
        // `main` is a builtin plan, not a grid: as a group it is unknown,
        // and the error lists the five canonical names.
        let p = Plan::from_json(r#"{"name": "x", "configs": [{"group": "main"}]}"#).unwrap();
        let err = p.resolve_configs().unwrap_err();
        assert_eq!(
            err,
            "unknown config group 'main' (table3 | fig12 | ssa | topology | steering-cross)"
        );
        for group in ["evaluated", "2cyclehop", "topology-ablation", "cross"] {
            assert!(ConfigSpec::group(group).resolve().is_err(), "{group}");
        }
        assert_eq!(ConfigSpec::group("Fig12").resolve().unwrap().len(), 4);
    }

    #[test]
    fn reports_may_only_reference_configs_the_plan_runs() {
        // A typo'd pair must fail validation up front, not render a silent
        // neutral speedup after the whole sweep ran.
        let typo = Plan::new("t")
            .group("table3")
            .report(ReportSpec::speedup(vec![(
                "Ring_8clus_1bus_2IW".into(),
                "Covn_8clus_1bus_2IW".into(),
            )]));
        let err = typo.validate().unwrap_err();
        assert!(err.contains("Covn_8clus_1bus_2IW"), "{err}");
        // Same for an explicit grouped-report subset.
        let subset = Plan::new("t").group("table3").report(ReportSpec {
            kind: "grouped".into(),
            configs: vec!["NoSuch".into()],
            ..ReportSpec::default()
        });
        assert!(subset.validate().unwrap_err().contains("NoSuch"));
        // Correct references pass.
        let ok = Plan::new("t")
            .group("table3")
            .report(ReportSpec::speedup(vec![(
                "Ring_8clus_1bus_2IW".into(),
                "Conv_8clus_1bus_2IW".into(),
            )]));
        ok.validate().unwrap();
    }

    #[test]
    fn speedup_pairs_reject_unknown_and_duplicate_keys() {
        let pair_spec = |pair: &str| {
            format!(
                r#"{{"name": "x", "configs": [{{"group": "table3"}}],
                    "reports": [{{"kind": "speedup", "pairs": [{pair}]}}]}}"#
            )
        };
        let typo = r#"{"num": "Ring_8clus_1bus_2IW", "den": "Conv_8clus_1bus_2IW", "lable": "x"}"#;
        let err = Plan::from_json(&pair_spec(typo)).unwrap_err();
        assert!(err.contains("unknown pair key 'lable'"), "{err}");
        let dup = r#"{"num": "A", "num": "Ring_8clus_1bus_2IW", "den": "Conv_8clus_1bus_2IW"}"#;
        let err = Plan::from_json(&pair_spec(dup)).unwrap_err();
        assert!(err.contains("duplicate pair key 'num'"), "{err}");
        assert!(Plan::from_json(&pair_spec(r#"{"num": "A"}"#))
            .unwrap_err()
            .contains("den"));
        assert!(Plan::from_json(&pair_spec(r#"["A", "B"]"#)).is_err());
        let ok = r#"{"num": "Ring_8clus_1bus_2IW", "den": "Conv_8clus_1bus_2IW", "label": "x"}"#;
        let plan = Plan::from_json(&pair_spec(ok)).unwrap();
        assert_eq!(plan.reports[0].pairs[0].label.as_deref(), Some("x"));
        plan.validate().unwrap();
    }

    #[test]
    fn labelled_distribution_and_matrix_reports_round_trip() {
        let ring = "Ring_8clus_1bus_2IW".to_string();
        let conv = "Conv_8clus_1bus_2IW".to_string();
        let plan = Plan::new("kinds")
            .group("table3")
            .report(ReportSpec::speedup_labelled(vec![SpeedupPair::labelled(
                "1 bus", &ring, &conv,
            )]))
            .report(ReportSpec::distribution(vec![ring.clone()]).titled("Shares"))
            .report(ReportSpec::matrix(
                Metric::Nready,
                vec!["r".into()],
                vec!["Ring".into(), "Conv".into()],
                vec![ring.clone(), conv.clone()],
            ));
        let json = plan.to_json();
        for key in ["\"label\"", "\"distribution\"", "\"rows\"", "\"cols\""] {
            assert!(json.contains(key), "{key} missing:\n{json}");
        }
        let back = Plan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        back.validate().unwrap();
        // Matrix cells must reference configurations the plan runs.
        let mut stray = plan.clone();
        stray.reports[2].configs[1] = "NoSuch".into();
        assert!(stray.validate().unwrap_err().contains("NoSuch"));
    }

    #[test]
    fn matrix_needs_one_config_per_cell() {
        let matrix = |configs: usize| {
            ReportSpec::matrix(
                Metric::Ipc,
                vec!["a".into(), "b".into()],
                vec!["x".into(), "y".into(), "z".into()],
                vec!["Ring_8clus_1bus_2IW".to_string(); configs],
            )
        };
        matrix(6).validate().unwrap();
        for wrong in [5, 7, 0] {
            let err = matrix(wrong).validate().unwrap_err();
            assert!(err.contains("2 rows x 3 cols"), "{err}");
        }
        assert!(ReportSpec::matrix(Metric::Ipc, vec![], vec![], vec![])
            .validate()
            .is_err());
        // The same check applies to a spec parsed from JSON.
        let spec = r#"{"name": "x", "configs": [{"group": "table3"}],
            "reports": [{"kind": "matrix", "rows": ["a"], "cols": ["x", "y"],
                         "configs": ["Ring_8clus_1bus_2IW"]}]}"#;
        let plan = Plan::from_json(spec).unwrap();
        assert!(plan.validate().unwrap_err().contains("1 rows x 2 cols"));
    }

    #[test]
    fn report_validation_catches_mistakes() {
        assert!(ReportSpec::grouped(Metric::Ipc).validate().is_ok());
        assert!(ReportSpec {
            kind: "speedup".into(),
            ..ReportSpec::default()
        }
        .validate()
        .is_err());
        assert!(ReportSpec {
            kind: "pie-chart".into(),
            ..ReportSpec::default()
        }
        .validate()
        .is_err());
        assert!(ReportSpec {
            kind: "grouped".into(),
            metric: Some("no_such".into()),
            ..ReportSpec::default()
        }
        .validate()
        .is_err());
    }
}
