//! `ftbench` — the repository benchmark: five seeded workloads that call the
//! workspace only through its public functions, end-to-end metrics as
//! medians with quartiles, correctness gates on every output, and a traced
//! rep that splits each operation into the workspace's layers.
//!
//! The metric catalog — names, units, which direction is better, and the
//! regression bounds `compare` applies — is `BENCHMARK.json` at the
//! repository root, compiled in. README.md describes the workloads and what
//! each per-layer metric should move.

pub mod compare;
pub mod json;
mod layers;
pub mod reference;
mod workloads;

use json::Json;
use std::fmt::Write as _;

pub use reference::Reference;
pub use workloads::{reference_outputs, run, Kind, RunResult, Workload, WORKLOADS};

/// The benchmark definition this binary was built with.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the catalog.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name, unique across the catalog.
    pub name: String,
    /// Unit label (`ms`, `s`, `%`, `count`, …).
    pub unit: String,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metric catalog of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics printed by an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics printed by a traced run.
    pub per_layer: Vec<MetricSpec>,
}

impl Catalog {
    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {f:?}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::num),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Catalog {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in catalog.
    pub fn builtin() -> Result<Catalog, String> {
        Catalog::parse(BENCHMARK_JSON)
    }

    /// The metric named `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Median and quartiles of a sample set, computed exactly as Python's
/// `statistics.median` and `statistics.quantiles(values, n=4)` do, so the
/// spreads printed here match the ones the acceptance check computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Some(Summary::single(median));
        }
        // statistics.quantiles, method="exclusive": position i·(n+1)/4.
        let quartile = |i: usize| {
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        };
        Some(Summary {
            median,
            p25: quartile(1),
            p75: quartile(3),
            n,
        })
    }

    /// A single measured value.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            p25: value,
            p75: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

impl RunResult {
    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Human-readable table: one line per metric with unit, median,
    /// quartiles and sample count, then the gate failures.
    pub fn table(&self, catalog: &Catalog) -> String {
        let mut out = format!(
            "ftbench {} seed={} ({} ops, {} failed)\n",
            self.workload, self.seed, self.attempted, self.failed
        );
        for (name, s) in &self.metrics {
            let unit = catalog.metric(name).map_or("", |m| m.unit.as_str());
            let _ = writeln!(
                out,
                "  {name:<34} {:>12.4} {unit:<6} p25 {:>12.4}  p75 {:>12.4}  n {}",
                s.median, s.p25, s.p75, s.n
            );
        }
        for (name, s) in &self.details {
            let _ = writeln!(out, "  {name:<34} {:>12.4}  (n {})", s.median, s.n);
        }
        for f in &self.failures {
            let _ = writeln!(out, "  GATE FAILED: {f}");
        }
        out
    }

    /// The one-line result the benchmark contract asks for: `correct`,
    /// `attempted`, `failed`, and each metric's median with its unit.
    pub fn result_line(&self, catalog: &Catalog) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let unit = catalog.metric(name).map_or("", |m| m.unit.as_str());
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    num(s.median),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detailed record `--json` appends and `compare` reads: the
    /// result line's fields plus quartiles and sample counts.
    pub fn record(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                format!(
                    "{}: {{\"median\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}}}",
                    json::quote(name),
                    num(s.median),
                    num(s.p25),
                    num(s.p75),
                    s.n
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {{{}}}}}",
            json::quote(self.workload),
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values cannot occur in a passing
/// run; they render as 0 so the line stays parseable).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.p25, s.median, s.p75, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // two samples: [1.0, 1.5, 2.0]... quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[4.0]).unwrap(), Summary::single(4.0));
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 18.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn builtin_catalog_parses() {
        let c = Catalog::builtin().unwrap();
        assert!(c.metric("setup_s").is_some_and(|m| m.bound.is_some()));
        assert_eq!(c.workloads.len(), WORKLOADS.len());
    }
}
