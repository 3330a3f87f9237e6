//! Throughput of a topology under a traffic matrix — the paper's §3.1
//! methodology end to end.
//!
//! 1. Aggregate the server-level matrix to attachment switches (server
//!    links are uncapacitated per the paper's relaxation; same-switch pairs
//!    drop out).
//! 2. Give every switch–switch link unit capacity per direction.
//! 3. Solve maximum concurrent flow exactly when the instance is a star (a
//!    hot spot's broadcast/incast: one max-flow proves the optimum) or
//!    small enough for the simplex LP, otherwise with the certified FPTAS.
//!
//! The reported λ is the per-flow throughput the paper plots on the y-axes
//! of Figures 7 and 8.

use ft_graph::UNREACHABLE16;
use ft_mcf::{
    aggregate_commodities, max_concurrent_flow, max_concurrent_flow_aggregated,
    max_concurrent_flow_exact, star_exact, AggregatedInstance, CapGraph, Commodity, FptasOptions,
    McfError, McfSolution, Stop,
};
use ft_topo::{DedupedApsp, Network};
use ft_workload::TrafficMatrix;

use crate::path_length::deduped_apsp;

/// Which instance the FPTAS solves above the exact-LP threshold. Both run
/// the one source-batched Fleischer loop of `ft_mcf::fptas`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverKind {
    /// The full commodity list ([`max_concurrent_flow`]).
    #[default]
    Batched,
    /// Symmetry-aggregated quotient solve
    /// ([`max_concurrent_flow_aggregated`]) over
    /// `ft_topo::SymmetryClasses` orbits; falls back to [`Self::Batched`]
    /// on the full instance when the commodity set does not aggregate
    /// (asymmetric/converted topologies, incomplete distance data).
    Aggregated,
}

/// Solver configuration for [`throughput`].
#[derive(Clone, Copy, Debug)]
pub struct ThroughputOptions {
    /// FPTAS approximation parameter (certified λ ≥ (1 − 3ε)·OPT).
    pub epsilon: f64,
    /// Use the exact LP when `commodities × arcs` is at most this
    /// (LP variable count); beyond it, the FPTAS runs, and 0 turns the LP
    /// off. A star instance (every commodity at one hub, as in one hot-spot
    /// cluster) is solved exactly by max-flow ([`ft_mcf::star_exact`])
    /// before either, whatever this says.
    pub exact_threshold: usize,
    /// Optional hard cap on FPTAS shortest-path computations.
    pub max_steps: Option<usize>,
    /// Which instance the FPTAS solves above the threshold: the full
    /// commodity list or its symmetry quotient.
    pub solver: SolverKind,
    /// Unused: the FPTAS is sequential. Kept so that callers building the
    /// struct field by field still compile.
    pub threads: usize,
}

impl Default for ThroughputOptions {
    fn default() -> Self {
        ThroughputOptions {
            epsilon: 0.1,
            exact_threshold: 2_000,
            max_steps: None,
            solver: SolverKind::Batched,
            threads: 0,
        }
    }
}

impl ThroughputOptions {
    /// FPTAS-only options with the given ε (batched engine).
    pub fn fptas(epsilon: f64) -> Self {
        ThroughputOptions {
            epsilon,
            exact_threshold: 0,
            ..Default::default()
        }
    }

    /// FPTAS-only options with the given ε and routing engine.
    pub fn fptas_with(epsilon: f64, solver: SolverKind) -> Self {
        ThroughputOptions {
            epsilon,
            exact_threshold: 0,
            solver,
            ..Default::default()
        }
    }
}

/// Result of a throughput evaluation.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Concurrent per-flow throughput λ. Always a certified lower bound;
    /// only a converged (1 − 3ε)-approximation when
    /// [`ThroughputResult::budget_exhausted`] is `false`.
    pub lambda: f64,
    /// Whether λ is exact (true: a star's max-flow, the LP, or no
    /// commodities) or the FPTAS's certified approximation (false).
    pub exact: bool,
    /// Commodities after switch-level aggregation.
    pub commodities: usize,
    /// Certified upper bound on the optimal λ: the FPTAS's
    /// [`ft_mcf::McfSolution::upper_bound`] (cut bound tightened by the
    /// dual `D(l)/α(l)`), the proving cut on a star (within 1e-9 of λ),
    /// λ itself on the exact-LP path, ∞ when no commodity constrains the
    /// network.
    pub upper_bound: f64,
    /// Why the solver stopped. [`Stop::Gap`] certifies
    /// λ ≥ (1 − [`ft_mcf::GAP`])·`upper_bound`; the exact-LP path reports it
    /// too (λ equals its bound), and so does a star.
    pub stop: Stop,
    /// `true` when the FPTAS step budget ([`ThroughputOptions::max_steps`])
    /// tripped before λ reached (1 − 3ε)·`upper_bound`: `lambda` is then
    /// only a lower bound. Always `false` on the exact paths. Surface
    /// this to users (see [`crate::report::budget_warning`]) instead of
    /// presenting λ as final.
    pub budget_exhausted: bool,
    /// When the symmetry aggregation engaged
    /// ([`SolverKind::Aggregated`], non-identity): the number of
    /// representative commodities actually solved. `None` when the solver
    /// ran on the full commodity list.
    pub aggregated: Option<usize>,
}

impl ThroughputResult {
    /// An exact λ over `commodities` switch pairs, proven by `upper_bound`.
    fn exact(lambda: f64, upper_bound: f64, commodities: usize) -> Self {
        ThroughputResult {
            lambda,
            exact: true,
            commodities,
            upper_bound,
            stop: Stop::Gap,
            budget_exhausted: false,
            aggregated: None,
        }
    }

    /// The result of an FPTAS solve over `commodities` switch pairs.
    fn from_fptas(sol: McfSolution, commodities: usize, aggregated: Option<usize>) -> Self {
        ThroughputResult {
            lambda: sol.lambda,
            exact: false,
            commodities,
            upper_bound: sol.upper_bound,
            stop: sol.stop,
            budget_exhausted: sol.budget_exhausted,
            aggregated,
        }
    }
}

/// Evaluates λ for the network under the given server-level matrix.
///
/// # Errors
/// Propagates [`McfError`] from the underlying solver (invalid ε, internal
/// LP inconsistency); aggregation guarantees the commodities themselves are
/// well-formed.
pub fn throughput(
    net: &Network,
    tm: &TrafficMatrix,
    opts: ThroughputOptions,
) -> Result<ThroughputResult, McfError> {
    let commodities: Vec<Commodity> = aggregate_commodities(tm.switch_triples(net));
    throughput_on_commodities(net, &commodities, opts)
}

/// Evaluates λ for pre-aggregated switch-level commodities. Exposed for
/// callers (hybrid-mode experiments) that combine matrices before solving.
///
/// # Errors
/// Propagates [`McfError`] from the underlying solver.
pub fn throughput_on_commodities(
    net: &Network,
    commodities: &[Commodity],
    opts: ThroughputOptions,
) -> Result<ThroughputResult, McfError> {
    let sg = net.switch_graph();
    let cg = CapGraph::from_graph(&sg, 1.0);
    if commodities.is_empty() {
        return Ok(ThroughputResult::exact(f64::INFINITY, f64::INFINITY, 0));
    }
    let fopts = FptasOptions {
        epsilon: opts.epsilon,
        max_steps: opts.max_steps,
    };
    // A star's optimum is a cut that max-flow proves. A bad ε skips the
    // stage, so that the FPTAS still reports it.
    if let Some(star) = fopts
        .check()
        .ok()
        .and_then(|()| star_exact(&cg, commodities))
    {
        return Ok(ThroughputResult::exact(
            star.lambda,
            star.upper_bound,
            commodities.len(),
        ));
    }
    let lp_vars = commodities.len() * cg.arc_count();
    if lp_vars <= opts.exact_threshold {
        let lambda = max_concurrent_flow_exact(&cg, commodities)?;
        return Ok(ThroughputResult::exact(lambda, lambda, commodities.len()));
    }
    let wrap = |sol: McfSolution, aggregated: Option<usize>| {
        ThroughputResult::from_fptas(sol, commodities.len(), aggregated)
    };
    match opts.solver {
        SolverKind::Batched => Ok(wrap(max_concurrent_flow(&cg, commodities, fopts)?, None)),
        SolverKind::Aggregated => {
            // The builder reads symmetry classes and hop distances, both
            // from the deduplicated table.
            let inst = deduped_apsp(net, &sg).and_then(|dd| {
                let classes = dd.classes().class_slice();
                AggregatedInstance::from_commodities(&cg, classes, commodities, &hops(&dd))
            });
            match inst {
                Some(inst) => {
                    let aggregated = (!inst.is_identity()).then_some(inst.commodities().len());
                    Ok(wrap(
                        max_concurrent_flow_aggregated(&cg, &inst, fopts)?,
                        aggregated,
                    ))
                }
                // non-aggregatable (asymmetric, mixed demands, missing
                // distance rows): solve the instance as given
                None => Ok(wrap(max_concurrent_flow(&cg, commodities, fopts)?, None)),
            }
        }
    }
}

/// Symbolic uniform all-to-all throughput: every ordered pair of distinct
/// servers exchanges unit demand, expressed directly as per-switch weights
/// (`n_s · n_t` between hosting switches) without materializing the
/// quadratic commodity list. With [`SolverKind::Aggregated`] and a
/// symmetric topology this is what makes k = 128 solvable at all; other
/// engines (or failed aggregation) fall back to the materialized list.
///
/// # Errors
/// Propagates [`McfError`] from the underlying solver.
pub fn throughput_all_to_all(
    net: &Network,
    opts: ThroughputOptions,
) -> Result<ThroughputResult, McfError> {
    let counts = net.server_counts();
    if opts.solver == SolverKind::Aggregated {
        // the switch graph and the distance table are only builder inputs,
        // dropped before the solve
        let sg = net.switch_graph();
        let quotient = deduped_apsp(net, &sg).and_then(|dd| {
            let cg = CapGraph::from_graph(&sg, 1.0);
            let weights: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
            let classes = dd.classes().class_slice();
            let inst = AggregatedInstance::all_to_all(&cg, classes, &weights, &hops(&dd))?;
            Some((cg, inst))
        });
        drop(sg);
        if let Some((cg, inst)) = quotient {
            let sol = max_concurrent_flow_aggregated(
                &cg,
                &inst,
                FptasOptions {
                    epsilon: opts.epsilon,
                    max_steps: opts.max_steps,
                },
            )?;
            let aggregated = (!inst.is_identity()).then_some(inst.commodities().len());
            return Ok(ThroughputResult::from_fptas(
                sol,
                inst.original_commodities(),
                aggregated,
            ));
        }
    }
    // Materialized fallback: switch-level all-to-all with n_s·n_t demands,
    // solved as given — the symbolic aggregation has just declined the
    // same pairs.
    let mut commodities = Vec::new();
    for (s, &ns) in counts.iter().enumerate() {
        if ns == 0 {
            continue;
        }
        for (t, &nt) in counts.iter().enumerate() {
            if t != s && nt > 0 {
                commodities.push(Commodity {
                    src: s,
                    dst: t,
                    demand: f64::from(ns) * f64::from(nt),
                });
            }
        }
    }
    let opts = ThroughputOptions {
        solver: SolverKind::Batched,
        ..opts
    };
    throughput_on_commodities(net, &commodities, opts)
}

/// The quotient builders' hop oracle over a deduplicated table.
fn hops(dd: &DedupedApsp) -> impl Fn(usize, usize) -> Option<u32> + Sync + '_ {
    move |a, b| match dd.get(a, b) {
        UNREACHABLE16 => Some(u32::MAX),
        d => Some(u32::from(d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_topo::{fat_tree, jellyfish_matching_fat_tree};
    use ft_workload::{generate, Locality, TrafficPattern, WorkloadSpec};

    #[test]
    fn same_switch_traffic_is_free() {
        let net = fat_tree(4).unwrap();
        // all-to-all among the 2 servers of one edge switch: same-switch
        // pairs only → unconstrained
        let spec = WorkloadSpec {
            pattern: TrafficPattern::AllToAll,
            cluster_size: 2,
            locality: Locality::Strong,
        };
        let tm = generate(&net, &spec, 1);
        // clusters of 2 over contiguous ids = exactly the co-located pairs
        let r = throughput(&net, &tm, ThroughputOptions::default()).unwrap();
        assert!(r.lambda.is_infinite());
        assert_eq!(r.commodities, 0);
    }

    #[test]
    fn fat_tree_all_to_all_exact_vs_fptas() {
        let net = fat_tree(4).unwrap();
        let spec = WorkloadSpec {
            pattern: TrafficPattern::AllToAll,
            cluster_size: 8,
            locality: Locality::Strong,
        };
        let tm = generate(&net, &spec, 1);
        let exact = throughput(
            &net,
            &tm,
            ThroughputOptions {
                exact_threshold: usize::MAX,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(exact.exact);
        // the exact λ is its own certified bound
        assert_eq!(exact.upper_bound.to_bits(), exact.lambda.to_bits());
        assert_eq!(exact.stop, Stop::Gap);
        let approx = throughput(&net, &tm, ThroughputOptions::fptas(0.05)).unwrap();
        assert!(!approx.exact);
        assert!(approx.lambda <= exact.lambda + 1e-6);
        assert!(exact.lambda <= approx.upper_bound * (1.0 + 1e-9));
        assert!(
            approx.lambda >= 0.8 * exact.lambda,
            "approx {} vs exact {}",
            approx.lambda,
            exact.lambda
        );
    }

    #[test]
    fn random_graph_beats_fat_tree_on_hotspot() {
        // the paper's headline: ~1.5× throughput for broadcast/incast
        let k = 6;
        let spec = WorkloadSpec {
            pattern: TrafficPattern::HotSpot,
            cluster_size: 27, // one pod's worth, spans pods
            locality: Locality::None,
        };
        let ft = fat_tree(k).unwrap();
        let rg = jellyfish_matching_fat_tree(k, 3).unwrap();
        let tm_ft = generate(&ft, &spec, 9);
        let tm_rg = generate(&rg, &spec, 9);
        let o = ThroughputOptions::fptas(0.08);
        let lf = throughput(&ft, &tm_ft, o).unwrap().lambda;
        let lr = throughput(&rg, &tm_rg, o).unwrap().lambda;
        assert!(lr > lf, "random graph λ {lr} should beat fat-tree λ {lf}");
    }

    #[test]
    fn solver_engines_agree_on_fat_tree_all_to_all() {
        let net = fat_tree(4).unwrap();
        let eps = 0.08;
        let band = 1.0 - 3.0 * eps;
        let b = throughput_all_to_all(&net, ThroughputOptions::fptas(eps)).unwrap();
        let a = throughput_all_to_all(
            &net,
            ThroughputOptions::fptas_with(eps, SolverKind::Aggregated),
        )
        .unwrap();
        // the fat-tree is symmetric: the aggregation must engage and
        // collapse the 56 edge-pair commodities to a handful of orbits
        let collapsed = a
            .aggregated
            .expect("aggregation should engage on a fat-tree");
        assert!(
            collapsed < a.commodities,
            "{collapsed} vs {}",
            a.commodities
        );
        assert!(
            a.lambda >= band * b.lambda - 1e-9 && b.lambda >= band * a.lambda - 1e-9,
            "aggregated {} vs batched {} outside the ε band",
            a.lambda,
            b.lambda
        );
        assert!(!a.budget_exhausted);
        assert!(!b.budget_exhausted);
    }

    #[test]
    fn lambda_within_upper_bound() {
        let net = fat_tree(4).unwrap();
        let tm = generate(&net, &WorkloadSpec::hotspot(Locality::Strong), 2);
        let r = throughput(&net, &tm, ThroughputOptions::fptas(0.1)).unwrap();
        assert!(r.lambda <= r.upper_bound + 1e-9);
        assert!(r.lambda > 0.0);
        assert!(!r.budget_exhausted, "unbounded run must converge");
    }
}
