//! Per-layer attribution of a traced operation.
//!
//! A traced run records ft-obs spans into memory: the `bench.*` spans this
//! crate opens around each public call, and the spans the workspace already
//! emits (`fptas.run`, `metrics.apsp`, `par.*`, `sim.des`, `des.run`,
//! `des.conversion_*`, `serve.*`). [`Fold`] rebuilds the span forest with
//! `ft_obs::analyze` and expresses layer time as a share of the operation
//! the end-to-end metric `op_ms` times. A layer a workload does not run
//! reads 0 %; see README.md for which workload exercises which layer.

use ft_obs::analyze::{Forest, SpanEvent, Trace};

/// The spans of one traced section, folded against its operation spans.
pub struct Fold {
    trace: Trace,
    self_us: Vec<u64>,
    /// Whether each span is an operation root or one of its descendants.
    in_op: Vec<bool>,
    op_us: u64,
}

impl Fold {
    /// Folds span JSONL `lines`; spans named `op` (and everything below
    /// them on the same thread) make up the traced operation.
    pub fn new(lines: &[String], op: &str) -> Fold {
        let trace = Trace::parse(&lines.join("\n"));
        let forest = Forest::build(&trace);
        let mut in_op = vec![false; trace.spans.len()];
        let mut stack: Vec<usize> = (0..trace.spans.len())
            .filter(|&i| trace.spans[i].name == op)
            .collect();
        let op_us = stack.iter().map(|&i| trace.spans[i].dur_us).sum();
        while let Some(i) = stack.pop() {
            if !in_op[i] {
                in_op[i] = true;
                stack.extend(&forest.children[i]);
            }
        }
        let self_us = forest.self_us.clone();
        Fold {
            trace,
            self_us,
            in_op,
            op_us,
        }
    }

    /// Wall time of the traced operation(s), ms.
    pub fn op_ms(&self) -> f64 {
        self.op_us as f64 / 1e3
    }

    /// `ms` as a percentage of the operation time.
    pub fn pct(&self, ms: f64) -> f64 {
        if self.op_us == 0 {
            0.0
        } else {
            100.0 * ms / self.op_ms()
        }
    }

    fn sum_us(&self, keep: impl Fn(usize, &SpanEvent) -> bool, self_time: bool) -> u64 {
        self.trace
            .spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| keep(i, s))
            .map(|(i, s)| if self_time { self.self_us[i] } else { s.dur_us })
            .sum()
    }

    /// Total duration of the spans named in `names` inside the operation, ms.
    pub fn within_ms(&self, names: &[&str]) -> f64 {
        self.sum_us(
            |i, s| self.in_op[i] && names.contains(&s.name.as_str()),
            false,
        ) as f64
            / 1e3
    }

    /// Self time of the spans named `name` inside the operation for which
    /// `pred` holds, ms.
    pub fn self_ms(&self, name: &str, pred: impl Fn(&SpanEvent) -> bool) -> f64 {
        self.sum_us(|i, s| self.in_op[i] && s.name == name && pred(s), true) as f64 / 1e3
    }

    /// Total duration of the spans named `name` anywhere in the section
    /// (set-up calls and probes run outside the operation), ms.
    pub fn anywhere_ms(&self, name: &str) -> f64 {
        self.sum_us(|_, s| s.name == name, false) as f64 / 1e3
    }
}

/// Registry counters the per-layer metrics read, as deltas over the
/// traced section.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    phases: u64,
    trees: u64,
    pushes: u64,
    deferrals: u64,
    shard_rounds: u64,
    apsp_rows: u64,
}

impl Counters {
    /// Current values.
    pub fn read() -> Counters {
        let c = |name| ft_obs::registry::counter(name).get();
        Counters {
            phases: c("ft_mcf_phases_total"),
            trees: c("ft_mcf_trees_total"),
            pushes: c("ft_mcf_pushes_total"),
            deferrals: c("ft_mcf_stale_deferrals_total"),
            shard_rounds: c("ft_mcf_shard_rounds_total"),
            apsp_rows: c("ft_metrics_apsp_rows_total"),
        }
    }

    /// Growth since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            phases: self.phases - earlier.phases,
            trees: self.trees - earlier.trees,
            pushes: self.pushes - earlier.pushes,
            deferrals: self.deferrals - earlier.deferrals,
            shard_rounds: self.shard_rounds - earlier.shard_rounds,
            apsp_rows: self.apsp_rows - earlier.apsp_rows,
        }
    }
}

/// Every per-layer metric, named as in `BENCHMARK.json`. Shares (`*_pct`)
/// are percentages of the traced operation's wall time.
#[derive(Debug, Default)]
pub struct Layers {
    pub fptas_pct: f64,
    pub phases: f64,
    pub trees: f64,
    pub pushes: f64,
    pub stale_deferral_ratio: f64,
    pub shard_rounds: f64,
    pub quotient_pct: f64,
    pub orbits: f64,
    pub symmetry_pct: f64,
    pub switch_distances_pct: f64,
    pub apsp_rows: f64,
    pub par_fill_pct: f64,
    pub materialize_pct: f64,
    pub plan_pct: f64,
    pub router_setup_pct: f64,
    pub conversion_drain_pct: f64,
    pub conversion_finish_pct: f64,
    pub conversion_reroutes: f64,
    pub ratealloc_pct: f64,
    pub reallocations: f64,
    pub engine_pct: f64,
    pub events: f64,
    pub scheduled: f64,
    pub cache_hit_ratio: f64,
    pub materializations: f64,
    pub path_fills: f64,
    pub path_fill_pct: f64,
    pub invalidations: f64,
    pub self_pct_throughput: f64,
    pub self_pct_paths: f64,
    pub self_pct_topo: f64,
    pub self_pct_convert: f64,
    pub trace_overhead_pct: f64,
    pub dropped_lines: f64,
}

impl Layers {
    /// Fills the layers every workload measures the same way: FPTAS,
    /// distances and parallel fills inside the operation, materialization
    /// and planning anywhere in the section, the solver counters, and the
    /// tracing overhead against the untraced median `untraced_op_ms`.
    pub fn common(fold: &Fold, counters: Counters, untraced_op_ms: f64) -> Layers {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        Layers {
            fptas_pct: fold.pct(fold.within_ms(&["fptas.run", "fptas.shard_run"])),
            phases: counters.phases as f64,
            trees: counters.trees as f64,
            pushes: counters.pushes as f64,
            stale_deferral_ratio: ratio(counters.deferrals, counters.pushes + counters.deferrals),
            shard_rounds: counters.shard_rounds as f64,
            switch_distances_pct: fold.pct(fold.within_ms(&["metrics.apsp"])),
            apsp_rows: counters.apsp_rows as f64,
            par_fill_pct: fold.pct(fold.within_ms(&["par.fill_rows", "par.fill_chunks"])),
            materialize_pct: fold.pct(
                fold.anywhere_ms("bench.materialize") + fold.within_ms(&["serve.materialize"]),
            ),
            plan_pct: fold.pct(fold.anywhere_ms("bench.plan")),
            trace_overhead_pct: 100.0 * (fold.op_ms() - untraced_op_ms) / untraced_op_ms,
            ..Layers::default()
        }
    }

    /// `(name, value)` for every metric, in `BENCHMARK.json` order.
    pub fn entries(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("ft-mcf.fptas_pct", self.fptas_pct),
            ("ft-mcf.phases", self.phases),
            ("ft-mcf.trees", self.trees),
            ("ft-mcf.pushes", self.pushes),
            ("ft-mcf.stale_deferral_ratio", self.stale_deferral_ratio),
            ("ft-mcf.shard_rounds", self.shard_rounds),
            ("ft-mcf.quotient_pct", self.quotient_pct),
            ("ft-mcf.orbits", self.orbits),
            ("ft-topo.symmetry_pct", self.symmetry_pct),
            ("ft-metrics.switch_distances_pct", self.switch_distances_pct),
            ("ft-metrics.apsp_rows", self.apsp_rows),
            ("ft-graph.par_fill_pct", self.par_fill_pct),
            ("ft-core.materialize_pct", self.materialize_pct),
            ("ft-control.plan_pct", self.plan_pct),
            ("ft-sim.router_setup_pct", self.router_setup_pct),
            ("ft-sim.conversion_drain_pct", self.conversion_drain_pct),
            ("ft-sim.conversion_finish_pct", self.conversion_finish_pct),
            ("ft-sim.conversion_reroutes", self.conversion_reroutes),
            ("ft-sim.ratealloc_pct", self.ratealloc_pct),
            ("ft-sim.reallocations", self.reallocations),
            ("ft-des.engine_pct", self.engine_pct),
            ("ft-des.events", self.events),
            ("ft-des.scheduled", self.scheduled),
            ("ft-serve.cache_hit_ratio", self.cache_hit_ratio),
            ("ft-serve.materializations", self.materializations),
            ("ft-serve.path_fills", self.path_fills),
            ("ft-serve.path_fill_pct", self.path_fill_pct),
            ("ft-serve.invalidations", self.invalidations),
            ("ft-serve.self_pct.throughput", self.self_pct_throughput),
            ("ft-serve.self_pct.paths", self.self_pct_paths),
            ("ft-serve.self_pct.topo", self.self_pct_topo),
            ("ft-serve.self_pct.convert", self.self_pct_convert),
            ("ft-obs.trace_overhead_pct", self.trace_overhead_pct),
            ("ft-obs.dropped_lines", self.dropped_lines),
        ]
    }
}
