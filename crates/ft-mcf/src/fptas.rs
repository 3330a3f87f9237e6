//! The Garg–Könemann FPTAS for maximum concurrent multi-commodity flow,
//! with Fleischer-style **source batching**.
//!
//! # Algorithm
//!
//! Every arc starts with length `δ/cap(a)` where
//! `δ = (m/(1−ε))^(−1/ε)`. The algorithm proceeds in *phases*; in each
//! phase every commodity routes its full demand along (approximately)
//! shortest paths under the current lengths, sending at most the path's
//! bottleneck capacity per push. After pushing `f` over arc `a`, the arc's
//! length is multiplied by `(1 + ε·f/cap(a))`. The run stops when the dual
//! value `D(l) = Σ cap(a)·l(a)` reaches 1.
//!
//! # Source batching (Fleischer)
//!
//! Garg–Könemann as literally stated computes one shortest path per push —
//! `O(#commodities)` Dijkstras per phase, which is what made k = 32
//! instances (11 200 commodities) exhaust any step budget inside phase 0.
//! Fleischer's refinement groups commodities by *source*: one Dijkstra
//! builds the full shortest-path **tree** from a source, and every
//! commodity sharing that source routes along its tree path for as long as
//! the path's *current* total length stays within a `(1 + ε)` factor of
//! the destination's distance at tree-build time (arc lengths only grow,
//! so that distance lower-bounds the current shortest path). Only when a
//! needed path drifts past that band is the tree recomputed. The
//! shortest-path count per
//! phase drops from `O(#commodities)` to `O(#sources)` plus a number of
//! recomputations bounded by the total arc-length growth — independent of
//! the number of commodities. Routing along `(1 + ε)`-approximate shortest
//! paths is exactly the setting of Fleischer's analysis and preserves the
//! `(1 − 3ε)` guarantee.
//!
//! The raw accumulated flow violates capacities by at most a
//! `log_{1+ε}(1/δ)` factor; dividing by the *actual worst overload*
//! `μ = max_a flow(a)/cap(a)` yields a certified feasible solution:
//!
//! ```text
//! λ = (min_j routed_j / d_j) / μ
//! ```
//!
//! This certificate is what [`max_concurrent_flow`] reports — it is a true
//! lower bound on the optimum independent of floating-point behaviour, and
//! the Fleischer–Garg–Könemann analysis guarantees it is ≥ (1 − 3ε) · OPT
//! at convergence.
//!
//! # Arc classes
//!
//! The loop packs flow into *elements* given by an `ArcModel`: one element
//! per arc for a full instance, or one per (tail class, head class) arc
//! class for a symmetry quotient ([`crate::shard`]). Lengths, flows, the
//! dual and δ then live on elements: a class of `q` arcs has capacity
//! `q·cap`, a path's length sums its arcs' class lengths, and a push raises
//! a class's length once per arc of the path in that class. On the
//! identity model the loop is the plain per-arc scheme, bit for bit, and
//! pays nothing for the indirection: where the trees run, a
//! [`Partition`], is a compile-time parameter of the routing loop, and
//! the node partition [`Nodes`] compiles to a plain node Dijkstra. A
//! quotient's trees run over cells instead of nodes: the cells of the
//! coarsest equitable partition that refines the node classes and has the
//! tree root alone in its cell. The same kernel ([`CapGraph::tree`])
//! builds both; on cells its distances are the full graph's, and its tree
//! paths charge the classes of real paths.
//!
//! # Termination
//!
//! Any length function `l` proves `OPT ≤ D(l)/α(l)` with
//! `α(l) = Σ_j d_j·dist_l(s_j, t_j)`: scaling `l` by `1/α(l)` makes it
//! feasible for the dual LP. The batched loop keeps the best such bound,
//! seeded with the node cut (or a quotient's class cut and distance
//! volume), and checks one rule at the end of every phase: it stops
//! ([`Stop::Gap`]) as soon as the λ it would return — the best certificate
//! any phase end produced — is ≥ (1 − [`GAP`])·UB.
//! α is summed from the *first* tree each group builds in a phase. Those
//! trees saw older, shorter lengths, so they only under-estimate α and the
//! bound stays valid at no extra Dijkstra. Failing the gap, the run stops
//! at the textbook `D(l) ≥ 1` ([`Stop::Dual`]) or when the step budget
//! ([`FptasOptions::max_steps`]) trips ([`Stop::Budget`]).
//!
//! A step budget bounds the number of shortest-path computations (source
//! trees in the batched solver, per-commodity paths in
//! [`max_concurrent_flow_reference`], which has no gap rule). A run that
//! trips it before its λ reaches (1 − 3ε)·UB sets
//! [`McfSolution::budget_exhausted`]: λ is still a true feasible lower
//! bound, but the (1 − 3ε) guarantee is not proven, and callers must check
//! the flag instead of treating λ as converged.
//!
//! # Demand pre-scaling
//!
//! The phase count grows with the optimal λ of the instance as given, so
//! demands are internally rescaled (using the node-cut upper bound, then
//! adaptively) to put λ near 1. The reported λ is mapped back to the
//! caller's demand units.
//!
//! # Determinism
//!
//! Commodity groups are formed in first-appearance order of their source
//! and scanned in input order within a group; Dijkstra tie-breaking is the
//! slot-index ordering of [`CapGraph::tree`]: node index on a full
//! instance, cell index on a quotient (cells numbered by their smallest
//! node). The result is a pure function of `(graph, commodities,
//! options)` — no thread count or scheduling dependence.

use crate::bounds::node_cut_upper_bound;
use crate::digraph::{CapGraph, DijkstraScratch, Nodes, Partition};
use crate::shard::{ArcModel, CellTrees, Quotient};
use crate::{Commodity, McfError};
use std::sync::OnceLock;

/// Cached handles into the global ft-obs registry. The hot loops count
/// into plain `u64` fields of [`RunState`] (zero atomic traffic inside a
/// phase); totals are flushed here once per [`run_once`] call, so the
/// solver's exposition lines cost O(1) atomics per run.
pub(crate) struct McfCounters {
    pub(crate) runs: &'static ft_obs::Counter,
    pub(crate) phases: &'static ft_obs::Counter,
    pub(crate) trees: &'static ft_obs::Counter,
    pub(crate) pushes: &'static ft_obs::Counter,
    pub(crate) deferrals: &'static ft_obs::Counter,
    pub(crate) gap_stops: &'static ft_obs::Counter,
    pub(crate) budget_exhausted: &'static ft_obs::Counter,
    pub(crate) aggregated_runs: &'static ft_obs::Counter,
    pub(crate) aggregated_commodities: &'static ft_obs::Gauge,
    pub(crate) star_exact: &'static ft_obs::Counter,
}

pub(crate) fn obs() -> &'static McfCounters {
    static CELL: OnceLock<McfCounters> = OnceLock::new();
    CELL.get_or_init(|| McfCounters {
        runs: ft_obs::registry::counter("ft_mcf_runs_total"),
        phases: ft_obs::registry::counter("ft_mcf_phases_total"),
        trees: ft_obs::registry::counter("ft_mcf_trees_total"),
        pushes: ft_obs::registry::counter("ft_mcf_pushes_total"),
        deferrals: ft_obs::registry::counter("ft_mcf_stale_deferrals_total"),
        gap_stops: ft_obs::registry::counter("ft_mcf_gap_stops_total"),
        budget_exhausted: ft_obs::registry::counter("ft_mcf_budget_exhausted_total"),
        aggregated_runs: ft_obs::registry::counter("ft_mcf_aggregated_runs_total"),
        aggregated_commodities: ft_obs::registry::gauge("ft_mcf_aggregated_commodities"),
        star_exact: ft_obs::registry::counter("ft_mcf_star_exact_total"),
    })
}

/// Tuning knobs for the FPTAS.
#[derive(Clone, Copy, Debug)]
pub struct FptasOptions {
    /// Approximation parameter ε ∈ (0, 0.5). The certified λ is
    /// ≥ (1 − 3ε)·OPT. Smaller ε costs ~1/ε² more work.
    pub epsilon: f64,
    /// Safety valve: abort after this many shortest-path computations
    /// (source trees in the batched solver, per-commodity paths in the
    /// reference solver). `None` = unlimited. A tripped budget is reported
    /// via [`McfSolution::budget_exhausted`], never as a silent λ = 0.
    pub max_steps: Option<usize>,
}

impl Default for FptasOptions {
    fn default() -> Self {
        FptasOptions {
            epsilon: 0.1,
            max_steps: None,
        }
    }
}

impl FptasOptions {
    /// Options with the given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        FptasOptions {
            epsilon,
            ..Default::default()
        }
    }

    /// Checks ε: every FPTAS entry point runs this first.
    ///
    /// # Errors
    /// [`McfError::InvalidEpsilon`] when ε is outside `(0, 0.5)`.
    pub fn check(&self) -> Result<(), McfError> {
        if self.epsilon > 0.0 && self.epsilon < 0.5 {
            Ok(())
        } else {
            Err(McfError::InvalidEpsilon {
                epsilon: self.epsilon,
            })
        }
    }
}

/// The certified gap γ at which a batched run stops: once the λ it would
/// return is ≥ (1 − γ)·UB. A constant, not an option: a point is either
/// certified within 1 % of OPT or reports why not ([`McfSolution::stop`]).
/// Below ε = 1/300 the (1 − 3ε) guarantee is the stricter target and
/// applies instead.
pub const GAP: f64 = 0.01;

/// Why an FPTAS run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// λ is within [`GAP`] of the certified upper bound. Also reported
    /// when λ is exact: no commodities (∞) or a disconnected pair (0).
    Gap,
    /// The textbook Garg–Könemann termination `D(l) ≥ 1`.
    Dual,
    /// The step budget ([`FptasOptions::max_steps`]) tripped.
    Budget,
}

impl Stop {
    /// The name spans and FTQ/1 replies report: `gap`, `dual` or `budget`.
    pub fn label(self) -> &'static str {
        match self {
            Stop::Gap => "gap",
            Stop::Dual => "dual",
            Stop::Budget => "budget",
        }
    }
}

/// Result of an FPTAS run.
#[derive(Clone, Debug)]
pub struct McfSolution {
    /// Certified-feasible concurrent flow rate — always a true lower bound
    /// on OPT; additionally ≥ (1 − 3ε)·OPT when
    /// [`McfSolution::budget_exhausted`] is `false`, and ≥ (1 − [`GAP`])·OPT
    /// when [`McfSolution::stop`] is [`Stop::Gap`].
    pub lambda: f64,
    /// Certified upper bound on OPT: the tighter of the cut bound (node
    /// cut, or a quotient's class cut and distance volume) and the best
    /// dual bound `D(l)/α(l)` the run saw (∞ if neither constrains), and
    /// never below [`McfSolution::lambda`].
    pub upper_bound: f64,
    /// Why the run stopped.
    pub stop: Stop,
    /// Completed phases.
    pub phases: usize,
    /// Total shortest-path computations (source trees when batched).
    pub steps: usize,
    /// `true` when [`FptasOptions::max_steps`] tripped before `lambda`
    /// reached (1 − 3ε)·`upper_bound`: `lambda` is then only the certified
    /// lower bound of the partial run, not a proven (1 − 3ε)-approximation.
    pub budget_exhausted: bool,
    /// Per-arc utilization of the certified solution (flow/cap ∈ [0, 1]).
    pub utilization: Vec<f64>,
}

/// Solves max concurrent flow approximately with the source-batched
/// (Fleischer) routing loop; see module docs.
///
/// Returns λ = ∞ for an empty commodity set and λ = 0 when any commodity
/// is disconnected.
///
/// # Errors
/// [`McfError::InvalidEpsilon`] when `opts.epsilon` is outside `(0, 0.5)`;
/// [`McfError::InvalidCommodity`] when a commodity has `src == dst` or
/// non-positive demand (filter with [`crate::aggregate_commodities`]).
pub fn max_concurrent_flow(
    g: &CapGraph,
    commodities: &[Commodity],
    opts: FptasOptions,
) -> Result<McfSolution, McfError> {
    solve(g, commodities, None, opts, true)
}

/// The original per-commodity Garg–Könemann routing loop: one shortest
/// path per push, `O(#commodities)` Dijkstras per phase.
///
/// Retained as the validation oracle for the batched solver — property
/// tests pin `max_concurrent_flow` against this within the ε guarantee —
/// and as the baseline in benchmark comparisons. Production callers want
/// [`max_concurrent_flow`].
///
/// # Errors
/// Same contract as [`max_concurrent_flow`].
pub fn max_concurrent_flow_reference(
    g: &CapGraph,
    commodities: &[Commodity],
    opts: FptasOptions,
) -> Result<McfSolution, McfError> {
    solve(g, commodities, None, opts, false)
}

/// One batch of commodities served by a single shortest-path tree: a
/// *source* tree rooted at a shared `src` (`reversed == false`) or a
/// *sink* tree rooted at a shared `dst` (`reversed == true`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Group {
    /// Tree root: the shared source, or the shared destination when
    /// `reversed`.
    pub(crate) root: usize,
    /// Whether the tree is sink-rooted.
    pub(crate) reversed: bool,
    /// Commodity indices, in input order.
    pub(crate) members: Vec<usize>,
}

impl Group {
    /// The member's endpoint away from the tree root.
    fn far(&self, c: &Commodity) -> usize {
        if self.reversed {
            c.src
        } else {
            c.dst
        }
    }
}

/// Partitions commodity indices into tree batches, each commodity joining
/// whichever endpoint is shared by *more* commodities overall: hot-spot
/// matrices (the paper's Figure 7 workload) have thousands of commodities
/// converging on a handful of destinations, and batching those under sink
/// trees cuts trees-per-phase from O(#sources) to O(#hot spots). Ties go
/// to the source side. Groups are formed in first-appearance order and
/// members stay in input order — the fixed ordering is part of the
/// determinism contract (DESIGN.md §10): the routing schedule, and with it
/// every float accumulation, depends only on the input commodity order.
pub(crate) fn group_commodities(commodities: &[Commodity]) -> Vec<Group> {
    use std::collections::HashMap;
    let mut src_count: HashMap<usize, usize> = HashMap::new();
    let mut dst_count: HashMap<usize, usize> = HashMap::new();
    for c in commodities {
        *src_count.entry(c.src).or_insert(0) += 1;
        *dst_count.entry(c.dst).or_insert(0) += 1;
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut slot: HashMap<(usize, bool), usize> = HashMap::new();
    for (j, c) in commodities.iter().enumerate() {
        let reversed = dst_count[&c.dst] > src_count[&c.src];
        let key = if reversed {
            (c.dst, true)
        } else {
            (c.src, false)
        };
        match slot.get(&key) {
            // index came from `groups.len()` below — always in bounds
            Some(&i) => groups[i].members.push(j),
            None => {
                slot.insert(key, groups.len());
                groups.push(Group {
                    root: key.0,
                    reversed,
                    members: vec![j],
                });
            }
        }
    }
    groups
}

/// Reachability pre-check: one unit-length SSSP per tree batch (not per
/// commodity — commodities sharing a tree share the check). Returns
/// `false` when any commodity's far endpoint is unreachable, which pins
/// λ to 0.
fn all_reachable(
    g: &CapGraph,
    commodities: &[Commodity],
    groups: &[Group],
    scratch: &mut DijkstraScratch,
) -> bool {
    groups.iter().all(|grp| {
        g.tree(Nodes, grp.root, grp.reversed, |_| 1.0, scratch);
        grp.members
            .iter()
            .all(|&j| scratch.reached(grp.far(&commodities[j])))
    })
}

/// The one solve frame of every FPTAS entry point: validation, the
/// reachability pre-check, the cut bound, and adaptive demand scaling
/// around [`run_once`].
///
/// `quotient` is `None` for a full instance, which runs on the identity
/// model and gets the node-cut bound and the reachability pre-check. A
/// symmetry quotient passes its arc classes, its class-cut and
/// distance-volume bound (its builder already verified every pair
/// reachable), and its node classes, which its trees' cell partitions
/// refine. `batched == false` selects the per-commodity reference loop
/// (full instances only).
pub(crate) fn solve(
    g: &CapGraph,
    commodities: &[Commodity],
    quotient: Option<Quotient<'_>>,
    opts: FptasOptions,
    batched: bool,
) -> Result<McfSolution, McfError> {
    opts.check()?;
    let m = g.arc_count();
    if commodities.is_empty() {
        return Ok(McfSolution {
            lambda: f64::INFINITY,
            upper_bound: f64::INFINITY,
            stop: Stop::Gap,
            phases: 0,
            steps: 0,
            budget_exhausted: false,
            utilization: vec![0.0; m],
        });
    }
    for c in commodities {
        if c.src == c.dst || c.demand <= 0.0 {
            return Err(McfError::InvalidCommodity {
                src: c.src,
                dst: c.dst,
                demand: c.demand,
            });
        }
    }
    let groups = group_commodities(commodities);
    // A quotient's arc classes come with the cell partitions its trees
    // run on; a full instance runs on one element per arc, over the nodes.
    let identity;
    let (model, cells) = match quotient {
        None => {
            identity = ArcModel::identity(g);
            (&identity, None)
        }
        Some(q) => (q.model, Some(CellTrees::new(g, q.node_class, &groups))),
    };
    let ub = quotient.map_or_else(|| node_cut_upper_bound(g, commodities), |q| q.ub);

    // One Dijkstra scratch for the whole solve: the pre-check below, plus
    // every tree/path computation of every run_once call, reuse its buffers
    // (zero per-call allocation after the first run warms it up).
    let mut scratch = DijkstraScratch::new();

    // A disconnected commodity pins λ to 0 — that is an exact answer, not a
    // budget artifact.
    if quotient.is_none() && !all_reachable(g, commodities, &groups, &mut scratch) {
        return Ok(McfSolution {
            lambda: 0.0,
            upper_bound: 0.0,
            stop: Stop::Gap,
            phases: 0,
            steps: 0,
            budget_exhausted: false,
            utilization: vec![0.0; m],
        });
    }

    // Adaptive demand scaling. The solver runs on demands `d/scale`; the
    // scaled instance's optimum is `OPT·scale`, so `scale = 1/OPT_est`
    // puts it near 1. The cut gives OPT_est = ub; refine adaptively from
    // the certified result when the cut is loose. A gap stop is final, and
    // each rerun starts from the best bound so far.
    let mut scale = if ub.is_finite() && ub > 0.0 {
        1.0 / ub
    } else {
        1.0
    };
    let mut run = |scale: f64, ub: f64| {
        let st = RunState::new(g, model, commodities, scale, ub, opts);
        run_once(st, &groups, cells.as_ref(), &mut scratch, batched)
    };
    let mut last = run(scale, ub);
    for _ in 0..4 {
        let scaled_lambda = last.lambda * scale; // λ' of the scaled instance
        if last.stop == Stop::Gap || (0.2..=5.0).contains(&scaled_lambda) {
            break;
        }
        if last.lambda <= 0.0 {
            // nothing routed: the instance was scaled far too hard (λ' ≫ 1
            // exhausts the dual before every commodity is served once).
            // Loosen aggressively and retry.
            scale *= 16.0;
        } else {
            scale /= scaled_lambda; // new scale ≈ 1/OPT
        }
        last = run(scale, last.upper_bound);
    }
    Ok(last)
}

/// Mutable state of one Garg–Könemann run, shared by both routing loops.
/// Lengths and flows live on the model's elements (arcs, or arc classes of
/// a quotient).
struct RunState<'a> {
    g: &'a CapGraph,
    model: &'a ArcModel,
    commodities: &'a [Commodity],
    eps: f64,
    scale: f64,
    max_steps: Option<usize>,
    /// Current per-element length l(e).
    length: Vec<f64>,
    /// Accumulated (capacity-violating) per-element flow.
    flow: Vec<f64>,
    /// Accumulated routed amount per commodity (scaled units).
    routed: Vec<f64>,
    /// Dual value D(l) = Σ cap(e)·l(e); termination at ≥ 1.
    dual: f64,
    /// Per group, `Σ d_j·dist(s_j, t_j)` (caller demand units) from the
    /// group's latest first-of-phase tree; their sum under-estimates α(l).
    /// Sized by the batched loop; stays empty in the reference loop.
    group_alpha: Vec<f64>,
    /// Best upper bound on OPT in caller units: the caller's cut (or
    /// earlier-run) bound, tightened by `D(l)/α(l)` each phase.
    ub: f64,
    /// Best certified λ_scaled any phase end produced, and the flow that
    /// certifies it. The run returns this, so its λ is monotone in the
    /// work done: neither the primal reset nor a noisy phase can lower it.
    best: f64,
    best_flow: Vec<f64>,
    phases: usize,
    steps: usize,
    /// Why the routing loop stopped; `Dual` until something else does.
    stop: Stop,
    /// Successful path pushes (observability only; flushed to the global
    /// registry once per run, never read by the algorithm).
    pushes: u64,
    /// Tree-path staleness deferrals in the batched loop (observability
    /// only).
    deferrals: u64,
}

impl<'a> RunState<'a> {
    /// A fresh run on demands divided by `scale` (so that the scaled
    /// optimum is ≈ 1 when `scale` ≈ 1/OPT). `ub` bounds OPT in *caller*
    /// units and seeds the gap rule, so it can fire as soon as the primal
    /// is good instead of waiting for `D(l)/α(l)` to tighten from ∞.
    fn new(
        g: &'a CapGraph,
        model: &'a ArcModel,
        commodities: &'a [Commodity],
        scale: f64,
        ub: f64,
        opts: FptasOptions,
    ) -> RunState<'a> {
        let eps = opts.epsilon;
        // δ from the element count of the packing instance: on a quotient
        // the classes, not the arcs, are the capacitated elements.
        let delta = (model.elements() as f64 / (1.0 - eps)).powf(-1.0 / eps);
        let length: Vec<f64> = model.caps().iter().map(|&cap| delta / cap).collect();
        let dual = length
            .iter()
            .zip(model.caps())
            .map(|(&l, &cap)| cap * l)
            .sum();
        RunState {
            g,
            model,
            commodities,
            eps,
            scale,
            max_steps: opts.max_steps,
            flow: vec![0.0f64; length.len()],
            length,
            routed: vec![0.0; commodities.len()],
            dual,
            group_alpha: Vec::new(),
            ub,
            best: 0.0,
            best_flow: vec![0.0; model.elements()],
            phases: 0,
            steps: 0,
            stop: Stop::Dual,
            pushes: 0,
            deferrals: 0,
        }
    }

    /// Worst element overload `μ = max_e flow(e)/cap(e)` of `flow`, at
    /// least 1 (a flow that overloads nothing is already feasible). On a
    /// quotient a class overloads exactly when its arcs do, since the
    /// symmetric flow spreads a class equally.
    fn overload(&self, flow: &[f64]) -> f64 {
        flow.iter()
            .zip(self.model.caps())
            .map(|(&f, &cap)| f / cap)
            .fold(0.0f64, f64::max)
            .max(1.0)
    }

    /// The certified concurrent flow rate of the *scaled* instance for the
    /// currently accumulated flow: worst-served commodity over worst
    /// overload.
    fn lambda_scaled(&self) -> f64 {
        let mu = self.overload(&self.flow);
        let served = self
            .commodities
            .iter()
            .enumerate()
            .map(|(j, c)| self.routed[j] / (c.demand / self.scale))
            .fold(f64::INFINITY, f64::min);
        if served.is_finite() {
            served / mu
        } else {
            0.0
        }
    }

    /// Keeps the current certificate if it beats the best so far, and
    /// returns the λ the run would return now, in caller units.
    fn keep_best(&mut self) -> f64 {
        let current = self.lambda_scaled();
        if current > self.best {
            self.best = current;
            self.best_flow.copy_from_slice(&self.flow);
        }
        self.best / self.scale
    }

    /// Tightens the upper bound with `D(l)/α`. Each group's α share comes
    /// from a tree built under lengths no longer than the current ones, so
    /// the sum under-estimates α(l) and the bound stays valid.
    fn tighten_ub(&mut self) {
        let alpha: f64 = self.group_alpha.iter().sum();
        if alpha > 0.0 {
            self.ub = self.ub.min(self.dual / alpha);
        }
    }

    /// Counts one shortest-path computation against the step budget;
    /// `false` (with the stop recorded) once the budget is spent.
    fn take_step(&mut self) -> bool {
        if let Some(max) = self.max_steps {
            if self.steps >= max {
                self.stop = Stop::Budget;
                return false;
            }
        }
        self.steps += 1;
        true
    }

    /// One-time primal reset (batched loop only): the first couple of
    /// phases route under near-uniform lengths and pile flow onto paths a
    /// converged run would avoid; that early flow inflates the overload μ
    /// and drags the certified λ for the rest of the run. Once the lengths
    /// have absorbed the congestion profile (and the dual is still far from
    /// terminating), dropping the accumulated flow — lengths stay — lets
    /// the certificate re-accumulate purely on informed paths. The
    /// pre-reset certificate stays the best one until the new flow beats
    /// it, so the reported λ can only improve.
    fn primal_reset(&mut self) {
        self.flow.fill(0.0);
        self.routed.fill(0.0);
    }
}

/// Runs one Garg–Könemann run to termination and reports its certified
/// solution, with λ and the upper bound in the caller's demand units and
/// the per-arc utilization of the certified flow.
fn run_once(
    mut st: RunState<'_>,
    groups: &[Group],
    cells: Option<&CellTrees>,
    scratch: &mut DijkstraScratch,
    batched: bool,
) -> McfSolution {
    let (model, scale) = (st.model, st.scale);
    let mut run_span = ft_obs::span!(
        "fptas.run",
        commodities = st.commodities.len(),
        groups = groups.len(),
        classes = model.elements(),
        batched = batched,
        scale = scale,
    );

    match cells {
        _ if !batched => route_reference(&mut st, scratch),
        None => route_batched(&mut st, groups, |_| Nodes, scratch),
        Some(cells) => route_batched(&mut st, groups, |gi| cells.of_group(gi), scratch),
    }
    // a run cut short mid-phase still has a valid, if older, α
    st.tighten_ub();

    // Certified feasible λ: the accumulated flow scaled down by its worst
    // overload, worst-served commodity — the best of the final flow and
    // every phase end's, in caller units (demands were d/scale).
    let lambda = st.keep_best();
    let best_flow = &st.best_flow;
    let mu = st.overload(best_flow);
    // On a quotient, the symmetric solution spreads a class's flow equally
    // over its arcs, loading each at class flow / class capacity.
    let utilization: Vec<f64> = (0..st.g.arc_count())
        .map(|a| {
            let e = model.element(a);
            best_flow[e] / model.caps()[e] / mu
        })
        .collect();
    let budget_exhausted = st.stop == Stop::Budget && lambda < (1.0 - 3.0 * st.eps) * st.ub;
    // λ is certified feasible, so it bounds OPT from below; where rounding
    // left the dual bound an ulp or two under it, λ itself is the bound
    let upper_bound = st.ub.max(lambda);

    // Flush the run's plain-field tallies into the global registry (O(1)
    // atomics per run) and close the run span with its outcome.
    let c = obs();
    c.runs.incr();
    c.phases.add(st.phases as u64);
    c.trees.add(st.steps as u64);
    c.pushes.add(st.pushes);
    c.deferrals.add(st.deferrals);
    if st.stop == Stop::Gap {
        c.gap_stops.incr();
    }
    if budget_exhausted {
        c.budget_exhausted.incr();
    }
    if let Some(s) = run_span.as_mut() {
        s.field("lambda", lambda);
        s.field("upper_bound", upper_bound);
        s.field("stop", st.stop.label());
        s.field("phases", st.phases);
        s.field("steps", st.steps);
        s.field("pushes", st.pushes);
        s.field("deferrals", st.deferrals);
        s.field("budget_exhausted", budget_exhausted);
    }

    McfSolution {
        lambda,
        upper_bound,
        stop: st.stop,
        phases: st.phases,
        steps: st.steps,
        budget_exhausted,
        utilization,
    }
}

/// Fleischer-style batched routing: one shortest-path tree per
/// (group, step) — a source tree rooted at the shared source, or a sink
/// tree rooted at the shared destination for `reversed` groups. Every
/// member routes along its tree path while that path's *current* length
/// stays within `(1 + ε)` of the far endpoint's distance at tree-build
/// time. Arc lengths only grow, so the build-time distance is a lower
/// bound on the current shortest path — a path passing the check is a
/// `(1 + ε)`-approximate shortest path, which is exactly the oracle the
/// Garg–Könemann analysis needs. Once a needed path drifts past the band,
/// the tree is recomputed.
///
/// `part_of(gi)` is where group `gi`'s trees run ([`Partition`]): the
/// nodes of a full instance, whose arcs are their own elements and whose
/// tree paths never repeat one, or the group's cells on a quotient, whose
/// tree paths can cross one arc class several times.
///
/// The first tree of each group in a phase also yields the group's share
/// of α; at the end of every phase the loop tightens UB with `D(l)/α` and
/// stops once the λ it would return is ≥ (1 − γ)·UB (see the module docs).
fn route_batched<P: Partition>(
    st: &mut RunState<'_>,
    groups: &[Group],
    part_of: impl Fn(usize) -> P,
    scratch: &mut DijkstraScratch,
) {
    let one_plus_eps = 1.0 + st.eps;
    let target = (1.0 - GAP).max(1.0 - 3.0 * st.eps);
    let (model, commodities) = (st.model, st.commodities);
    let element = |a: usize| if P::CLASSES { model.class(a) } else { a };
    let cap = model.caps();
    // Remaining (scaled) demand of the current group's members this phase.
    let mut rem: Vec<f64> = Vec::new();
    // Arc path of the member being routed (root-ward order; direction is
    // irrelevant for bottleneck/staleness/push).
    let mut path: Vec<usize> = Vec::new();
    st.group_alpha = vec![0.0; groups.len()];

    'outer: while st.dual < 1.0 {
        // One span per phase (None while tracing is off — the only cost is
        // a relaxed load). End-of-phase trajectory fields (trees, pushes,
        // deferrals, D(l), certified λ, upper bound) are attached before
        // the span drops at the bottom of the iteration; a phase cut short
        // by `break 'outer` still emits its timing event.
        let mut phase_span = ft_obs::span!("fptas.phase", phase = st.phases);
        let (steps0, pushes0, deferrals0) = (st.steps, st.pushes, st.deferrals);
        for (gi, grp) in groups.iter().enumerate() {
            let members = &grp.members;
            let part = part_of(gi);
            rem.clear();
            rem.extend(members.iter().map(|&j| commodities[j].demand / st.scale));
            let mut first_tree = true;
            while rem.iter().any(|&r| r > 0.0) {
                if !st.take_step() {
                    break 'outer;
                }
                let length = |a: usize| st.length[element(a)];
                st.g.tree(part, grp.root, grp.reversed, length, scratch);
                if first_tree {
                    first_tree = false;
                    let alpha = members
                        .iter()
                        .map(|&j| {
                            let c = &commodities[j];
                            c.demand * scratch.distance(part.slot(grp.far(c))).unwrap_or(0.0)
                        })
                        .sum();
                    st.group_alpha[gi] = alpha;
                }
                for (i, &j) in members.iter().enumerate() {
                    'member: while rem[i] > 0.0 {
                        let far = grp.far(&commodities[j]);
                        // Distance at tree-build time: a lower bound on the
                        // current shortest-path distance (lengths only grow).
                        let Some(tree_dist) = scratch.distance(part.slot(far)) else {
                            // cannot happen: the pre-check, or a quotient's
                            // builder, saw every pair reachable
                            break 'outer;
                        };
                        path.clear();
                        path.extend(st.g.tree_path(scratch, part, far, grp.reversed));
                        let mut bottleneck = f64::INFINITY;
                        let mut path_len = 0.0f64;
                        for &a in &path {
                            let e = element(a);
                            // a class met h times on the path saturates at
                            // cap/h per unit of path flow
                            let room = if P::CLASSES {
                                let h = path
                                    .iter()
                                    .fold(0u32, |h, &b| h + u32::from(element(b) == e));
                                cap[e] / f64::from(h)
                            } else {
                                cap[e]
                            };
                            bottleneck = bottleneck.min(room);
                            path_len += st.length[e];
                        }
                        if path_len > one_plus_eps * tree_dist {
                            // this member's tree path is no longer a
                            // (1 + ε)-approximate shortest path — defer the
                            // member; other members route through different
                            // subtrees and may still be in band. The tree is
                            // rebuilt only when a full sweep leaves demand
                            // pending (each fresh tree serves at least one
                            // push: a fresh path trivially passes the check).
                            st.deferrals += 1;
                            break 'member;
                        }
                        let f = rem[i].min(bottleneck);
                        rem[i] -= f;
                        st.routed[j] += f;
                        st.pushes += 1;
                        for &a in &path {
                            let e = element(a);
                            st.flow[e] += f;
                            let old = st.length[e];
                            st.length[e] = old * (1.0 + st.eps * f / cap[e]);
                            st.dual += cap[e] * (st.length[e] - old);
                        }
                        if st.dual >= 1.0 {
                            break 'outer;
                        }
                    }
                }
            }
        }
        // The one phase-end rule: stop once the λ this run would return is
        // certified within the gap of the best upper bound.
        st.phases += 1;
        st.tighten_ub();
        let lambda = st.keep_best();
        if let Some(s) = phase_span.as_mut() {
            s.field("trees", (st.steps - steps0) as u64);
            s.field("pushes", st.pushes - pushes0);
            s.field("deferrals", st.deferrals - deferrals0);
            s.field("dual", st.dual);
            s.field("lambda", lambda);
            s.field("upper_bound", st.ub);
        }
        if lambda >= target * st.ub {
            st.stop = Stop::Gap;
            break;
        }
        // Primal reset (see RunState::primal_reset): once, after the
        // lengths have seen two full phases of traffic, and only when the
        // dual is still far from terminating — runs that are about to
        // converge keep their accumulated flow.
        if st.phases == 2 && st.dual < 0.25 {
            st.primal_reset();
            if let Some(s) = phase_span.as_mut() {
                s.field("primal_reset", true);
            }
        }
    }
}

/// The original per-commodity routing loop: one shortest path per push,
/// on the identity model, read off a fresh source tree. Kept as the oracle
/// behind [`max_concurrent_flow_reference`].
fn route_reference(st: &mut RunState<'_>, scratch: &mut DijkstraScratch) {
    // Arc path of the current push, source → destination.
    let mut path: Vec<usize> = Vec::new();
    'outer: while st.dual < 1.0 {
        let mut phase_span = ft_obs::span!("fptas.phase", phase = st.phases);
        let (steps0, pushes0) = (st.steps, st.pushes);
        for (j, c) in st.commodities.iter().enumerate() {
            let mut rem = c.demand / st.scale;
            while rem > 0.0 && st.dual < 1.0 {
                if !st.take_step() {
                    break 'outer;
                }
                let length = |a: usize| st.length[a];
                st.g.tree(Nodes, c.src, false, length, scratch);
                if !scratch.reached(c.dst) {
                    break 'outer; // cannot happen after the pre-check
                }
                // the walk runs destination → source; the length updates
                // below accumulate in path order
                path.clear();
                path.extend(st.g.tree_path(scratch, Nodes, c.dst, false));
                path.reverse();
                // every arc is a bottleneck: they share one capacity
                let cap = st.g.cap();
                let f = rem.min(cap);
                rem -= f;
                st.routed[j] += f;
                st.pushes += 1;
                for &a in &path {
                    st.flow[a] += f;
                    let old = st.length[a];
                    st.length[a] = old * (1.0 + st.eps * f / cap);
                    st.dual += cap * (st.length[a] - old);
                }
            }
            if st.dual >= 1.0 {
                break 'outer;
            }
        }
        st.phases += 1;
        if let Some(s) = phase_span.as_mut() {
            s.field("paths", (st.steps - steps0) as u64);
            s.field("pushes", st.pushes - pushes0);
            s.field("dual", st.dual);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::max_concurrent_flow_exact;
    use ft_graph::Graph;

    fn unit(n: usize, edges: &[(u32, u32)]) -> CapGraph {
        CapGraph::from_graph(&Graph::from_edges(n, edges), 1.0)
    }

    fn check_one(g: &CapGraph, cs: &[Commodity], eps: f64, exact: f64, sol: &McfSolution) {
        assert!(
            sol.lambda <= exact + 1e-6,
            "approx {} exceeds exact {}",
            sol.lambda,
            exact
        );
        assert!(
            sol.lambda >= (1.0 - 3.0 * eps) * exact - 1e-9,
            "approx {} below guarantee for exact {}",
            sol.lambda,
            exact
        );
        assert!(sol.lambda <= sol.upper_bound + 1e-9);
        // the other side: an over-estimated α would put UB below OPT
        assert!(
            exact <= sol.upper_bound * (1.0 + 1e-9),
            "exact {} above the certified bound {}",
            exact,
            sol.upper_bound
        );
        if sol.stop == Stop::Gap {
            assert!(
                sol.lambda >= (1.0 - GAP) * exact - 1e-9,
                "gap stop at {} for exact {}",
                sol.lambda,
                exact
            );
        }
        assert!(!sol.budget_exhausted, "unlimited run reported exhaustion");
        for &u in &sol.utilization {
            assert!(u <= 1.0 + 1e-9, "utilization {u} over capacity");
        }
        let _ = (g, cs);
    }

    /// Both solvers — batched and per-commodity reference — must satisfy
    /// the sandwich against the exact simplex on every fixed instance.
    fn check_against_exact(g: &CapGraph, cs: &[Commodity], eps: f64) {
        let exact = max_concurrent_flow_exact(g, cs).unwrap();
        let opts = FptasOptions::with_epsilon(eps);
        let batched = max_concurrent_flow(g, cs, opts).unwrap();
        check_one(g, cs, eps, exact, &batched);
        let reference = max_concurrent_flow_reference(g, cs, opts).unwrap();
        check_one(g, cs, eps, exact, &reference);
    }

    #[test]
    fn single_path() {
        let g = unit(3, &[(0, 1), (1, 2)]);
        check_against_exact(
            &g,
            &[Commodity {
                src: 0,
                dst: 2,
                demand: 1.0,
            }],
            0.05,
        );
    }

    #[test]
    fn diamond() {
        let g = unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        check_against_exact(
            &g,
            &[Commodity {
                src: 0,
                dst: 3,
                demand: 1.0,
            }],
            0.05,
        );
    }

    #[test]
    fn shared_bottleneck() {
        let g = unit(4, &[(0, 2), (1, 2), (2, 3)]);
        let cs = [
            Commodity {
                src: 0,
                dst: 3,
                demand: 1.0,
            },
            Commodity {
                src: 1,
                dst: 3,
                demand: 1.0,
            },
        ];
        check_against_exact(&g, &cs, 0.05);
    }

    #[test]
    fn ring_all_to_all() {
        let g = unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut cs = Vec::new();
        for s in 0..4 {
            for t in 0..4 {
                if s != t {
                    cs.push(Commodity {
                        src: s,
                        dst: t,
                        demand: 1.0,
                    });
                }
            }
        }
        check_against_exact(&g, &cs, 0.05);
    }

    #[test]
    fn uneven_demands() {
        let g = unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)]);
        let cs = [
            Commodity {
                src: 0,
                dst: 3,
                demand: 3.0,
            },
            Commodity {
                src: 1,
                dst: 2,
                demand: 0.5,
            },
        ];
        check_against_exact(&g, &cs, 0.05);
    }

    #[test]
    fn disconnected_commodity_zero() {
        let g = unit(3, &[(0, 1)]);
        let s = max_concurrent_flow(
            &g,
            &[Commodity {
                src: 0,
                dst: 2,
                demand: 1.0,
            }],
            FptasOptions::default(),
        )
        .unwrap();
        assert_eq!(s.lambda, 0.0);
        // disconnection is a converged answer, not a budget artifact
        assert!(!s.budget_exhausted);
    }

    #[test]
    fn empty_commodities_infinite() {
        let g = unit(2, &[(0, 1)]);
        let s = max_concurrent_flow(&g, &[], FptasOptions::default()).unwrap();
        assert!(s.lambda.is_infinite());
        assert!(!s.budget_exhausted);
    }

    #[test]
    fn bad_epsilon_rejected() {
        let g = unit(2, &[(0, 1)]);
        let cs = [Commodity {
            src: 0,
            dst: 1,
            demand: 1.0,
        }];
        for eps in [0.0, -0.1, 0.5, 1.0] {
            let err = max_concurrent_flow(&g, &cs, FptasOptions::with_epsilon(eps)).unwrap_err();
            assert!(matches!(err, McfError::InvalidEpsilon { .. }), "eps {eps}");
        }
    }

    #[test]
    fn tiny_lambda_instance_scaled_correctly() {
        // one unit path shared by 100 units of demand → λ = 0.01; the
        // pre-scaling must keep the run short and the answer accurate.
        let g = unit(3, &[(0, 1), (1, 2)]);
        let cs = [Commodity {
            src: 0,
            dst: 2,
            demand: 100.0,
        }];
        let s = max_concurrent_flow(&g, &cs, FptasOptions::with_epsilon(0.05)).unwrap();
        assert!((s.lambda - 0.01).abs() < 0.002, "λ = {}", s.lambda);
    }

    #[test]
    fn step_budget_respected_and_reported() {
        // all-to-all on an 8-ring forms eight source groups, so one phase
        // takes at least eight trees: no certificate can exist within a
        // budget of five, whatever the gap rule does
        let ring: Vec<(u32, u32)> = (0..8).map(|v| (v, (v + 1) % 8)).collect();
        let g = unit(8, &ring);
        let cs =
            crate::aggregate_commodities((0..8).flat_map(|s| (0..8).map(move |t| (s, t, 1.0))));
        assert_eq!(group_commodities(&cs).len(), 8);
        let s = max_concurrent_flow(
            &g,
            &cs,
            FptasOptions {
                epsilon: 0.01,
                max_steps: Some(5),
            },
        )
        .unwrap();
        assert!(s.steps <= 5 * 5, "rescaling runs are each capped");
        // the budget must be *reported*, not silently swallowed
        assert_eq!(s.stop, Stop::Budget);
        assert!(s.budget_exhausted);
        assert!(s.lambda <= s.upper_bound);
    }

    #[test]
    fn converged_run_reports_no_exhaustion() {
        let g = unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let cs = [Commodity {
            src: 0,
            dst: 3,
            demand: 1.0,
        }];
        let s = max_concurrent_flow(
            &g,
            &cs,
            FptasOptions {
                epsilon: 0.1,
                max_steps: Some(1_000_000),
            },
        )
        .unwrap();
        assert!(!s.budget_exhausted);
        assert!(s.lambda > 0.0);
    }

    #[test]
    fn groups_first_appearance_order_source_side() {
        let c = |src, dst| Commodity {
            src,
            dst,
            demand: 1.0,
        };
        // src and dst multiplicities tie everywhere → all source-side
        let cs = [c(3, 0), c(1, 2), c(3, 2), c(0, 3), c(1, 0)];
        let groups = group_commodities(&cs);
        let expect = |root, members: Vec<usize>| Group {
            root,
            reversed: false,
            members,
        };
        assert_eq!(
            groups,
            vec![
                expect(3, vec![0, 2]),
                expect(1, vec![1, 4]),
                expect(0, vec![3])
            ]
        );
    }

    #[test]
    fn groups_batch_shared_destinations_under_sink_trees() {
        let c = |src, dst| Commodity {
            src,
            dst,
            demand: 1.0,
        };
        // three sources converging on one destination: one sink tree, not
        // three source trees — plus one ordinary source group
        let cs = [c(0, 3), c(1, 3), c(2, 3), c(3, 0)];
        let groups = group_commodities(&cs);
        assert_eq!(
            groups,
            vec![
                Group {
                    root: 3,
                    reversed: true,
                    members: vec![0, 1, 2],
                },
                Group {
                    root: 3,
                    reversed: false,
                    members: vec![3],
                },
            ]
        );
    }

    #[test]
    fn precheck_runs_one_sssp_per_distinct_source() {
        // 5 commodities over 2 distinct sources → exactly 2 scratch
        // warm-ups, not 5 (the old per-commodity pre-check did 5).
        let g = unit(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let c = |src, dst| Commodity {
            src,
            dst,
            demand: 1.0,
        };
        let cs = [c(0, 1), c(0, 2), c(0, 3), c(2, 0), c(2, 1)];
        let groups = group_commodities(&cs);
        let mut scratch = DijkstraScratch::new();
        assert!(all_reachable(&g, &cs, &groups, &mut scratch));
        assert_eq!(scratch.runs(), 2, "one SSSP per tree batch");
    }

    #[test]
    fn batched_close_to_reference_on_fixed_instances() {
        // The batched solver routes along (1 + ε)-approximate paths, so the
        // two certified values need not be bit-identical — but both are
        // (1 − 3ε)-approximations, so they agree within the joint band.
        let eps = 0.05;
        let cases: Vec<(CapGraph, Vec<Commodity>)> = vec![
            (
                unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)]),
                vec![
                    Commodity {
                        src: 0,
                        dst: 3,
                        demand: 2.0,
                    },
                    Commodity {
                        src: 1,
                        dst: 2,
                        demand: 1.0,
                    },
                ],
            ),
            (
                unit(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]),
                vec![
                    Commodity {
                        src: 0,
                        dst: 3,
                        demand: 1.0,
                    },
                    Commodity {
                        src: 0,
                        dst: 2,
                        demand: 1.0,
                    },
                    Commodity {
                        src: 4,
                        dst: 1,
                        demand: 0.5,
                    },
                ],
            ),
        ];
        for (g, cs) in &cases {
            let opts = FptasOptions::with_epsilon(eps);
            let b = max_concurrent_flow(g, cs, opts).unwrap().lambda;
            let r = max_concurrent_flow_reference(g, cs, opts).unwrap().lambda;
            assert!(
                b >= (1.0 - 3.0 * eps) * r - 1e-9 && r >= (1.0 - 3.0 * eps) * b - 1e-9,
                "batched {b} vs reference {r} outside the ε band"
            );
        }
    }

    #[test]
    fn random_instances_match_exact() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..6 {
            // random connected graph on 6 nodes
            let n = 6;
            let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (rng.random_range(0..v), v)).collect();
            for _ in 0..4 {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                if a != b && !edges.contains(&(a.min(b), a.max(b))) {
                    edges.push((a.min(b), a.max(b)));
                }
            }
            let g = unit(n as usize, &edges);
            let mut cs = Vec::new();
            for _ in 0..3 {
                let s = rng.random_range(0..n) as usize;
                let t = rng.random_range(0..n) as usize;
                if s != t {
                    cs.push(Commodity {
                        src: s,
                        dst: t,
                        demand: 1.0 + rng.random_range(0..3) as f64,
                    });
                }
            }
            if cs.is_empty() {
                continue;
            }
            let cs = crate::aggregate_commodities(cs.iter().map(|c| (c.src, c.dst, c.demand)));
            check_against_exact(&g, &cs, 0.08);
            let _ = trial;
        }
    }
}
