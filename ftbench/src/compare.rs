//! `ftbench compare A B`: the verdict for every (workload, end-to-end
//! metric) pair between two sets of runs.
//!
//! Each file holds the records `--json` appends, one per run. A side's
//! value for a pair is the median over its runs, and its spread the
//! interquartile range of those run medians; a side with a single run uses
//! that run's own quartiles. With the metric's bound `b` from
//! `BENCHMARK.json`, the verdict is `unresolved` when either side's spread
//! exceeds `b`, `worse` when B is worse than A by more than `b`, and `ok`
//! otherwise. Failed operations get a row of their own: any increase in the
//! failed share is `worse`.

use crate::json::Json;
use crate::{Catalog, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Outcome for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than A by more than the bound.
    Worse,
    /// A side's spread is wider than the bound.
    Unresolved,
}

/// One compared pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`error_share` for the failed-operation row).
    pub metric: String,
    /// Side A.
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Per-workload runs of one file: metric → run summaries, plus the
/// attempted and failed operation totals.
#[derive(Default)]
struct Side {
    metrics: BTreeMap<String, Vec<Summary>>,
    attempted: f64,
    failed: f64,
}

fn load(text: &str) -> Result<BTreeMap<String, Side>, String> {
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let rec = Json::parse(line).map_err(|e| bad(&e))?;
        if rec.get("traced") == Some(&Json::Bool(true)) {
            continue; // per-layer records carry no bounds
        }
        let workload = rec
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| bad("no workload"))?;
        let side = sides.entry(workload.to_string()).or_default();
        side.attempted += rec
            .get("attempted")
            .and_then(Json::num)
            .ok_or_else(|| bad("no attempted"))?;
        side.failed += rec
            .get("failed")
            .and_then(Json::num)
            .ok_or_else(|| bad("no failed"))?;
        let metrics = rec
            .get("metrics")
            .and_then(Json::obj)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::num)
                    .ok_or_else(|| bad(&format!("{name}: no {f}")))
            };
            let s = Summary {
                median: field("median")?,
                p25: field("p25")?,
                p75: field("p75")?,
                n: field("n")? as usize,
            };
            side.metrics.entry(name.clone()).or_default().push(s);
        }
    }
    Ok(sides)
}

/// The side's summary of one metric: the spread of run medians across
/// runs, or the one run's own quartiles.
fn side_summary(runs: &[Summary]) -> Option<Summary> {
    match runs {
        [one] => Some(*one),
        _ => Summary::of(&runs.iter().map(|s| s.median).collect::<Vec<_>>()),
    }
}

/// Compares the record files `a` and `b` under `catalog`'s bounds. Pairs
/// present on only one side are skipped.
pub fn compare(catalog: &Catalog, a: &str, b: &str) -> Result<Vec<Row>, String> {
    let a = load(a).map_err(|e| format!("A: {e}"))?;
    let b = load(b).map_err(|e| format!("B: {e}"))?;
    let mut rows = Vec::new();
    for (workload, sa) in &a {
        let Some(sb) = b.get(workload) else { continue };
        for spec in &catalog.end_to_end {
            let (Some(ra), Some(rb)) = (sa.metrics.get(&spec.name), sb.metrics.get(&spec.name))
            else {
                continue;
            };
            let (Some(va), Some(vb)) = (side_summary(ra), side_summary(rb)) else {
                continue;
            };
            let bound = spec.bound.unwrap_or(0.0);
            let change = if va.median == 0.0 {
                0.0
            } else {
                (vb.median - va.median) / va.median.abs()
            };
            let worse_by = if spec.higher_is_better {
                -change
            } else {
                change
            };
            let verdict = if va.spread() > bound || vb.spread() > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name.clone(),
                a: va,
                b: vb,
                worse_by,
                verdict,
            });
        }
        let share = |s: &Side| {
            Summary::single(if s.attempted > 0.0 {
                s.failed / s.attempted
            } else {
                0.0
            })
        };
        let (ea, eb) = (share(sa), share(sb));
        rows.push(Row {
            workload: workload.clone(),
            metric: "error_share".to_string(),
            a: ea,
            b: eb,
            worse_by: eb.median - ea.median,
            verdict: if eb.median > ea.median {
                Verdict::Worse
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<12} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [p25, p75]", "B median [p25, p75]", "change"
    );
    let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.p25, s.p75);
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        };
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>34} {:>34} {:>+7.1}%  {verdict}",
            r.workload,
            r.metric,
            side(&r.a),
            side(&r.b),
            100.0 * r.worse_by
        );
    }
    out
}
