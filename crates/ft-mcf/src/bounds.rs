//! Cheap upper bounds on the concurrent-flow rate λ, and the exact λ of a
//! star.
//!
//! The node cut is used for three purposes:
//!
//! * **the first upper bound** of the FPTAS gap rule, which the dual
//!   bound `D(l)/α(l)` then tightens;
//! * **demand pre-scaling** in the FPTAS — Garg–Könemann's phase count is
//!   proportional to the optimal λ of the *scaled* instance, so we scale
//!   demands such that λ ≈ 1 before running. With Fleischer source
//!   batching each phase costs O(#sources) shortest-path trees (plus
//!   staleness recomputes), so a bad pre-scale now wastes whole trees, not
//!   just single paths — the cut bound below is what keeps the step budget
//!   honest;
//! * **sanity checks** — a certified-feasible FPTAS λ must never exceed
//!   these bounds (and when [`crate::McfSolution::budget_exhausted`] is
//!   set, the gap between λ and these bounds quantifies how far the
//!   truncated run may be from convergence).
//!
//! [`star_exact`] goes further on one shape of instance, a hot spot's
//! broadcast/incast around one hub: there a cut is the optimum, and a
//! Newton iteration over Dinic max-flows finds and proves it.
//!
//! Both read the one capacity of a [`CapGraph`], whose every arc has a
//! twin: a node can send as much as it can receive, and a star's capacities
//! are equal both ways without a check.

use crate::digraph::CapGraph;
use crate::Commodity;
use ft_graph::FlowNetwork;

/// The node-cut upper bound: for every node `v`, all flow sourced at `v`
/// must leave through `v`'s outgoing capacity and all flow destined to `v`
/// must enter through its incoming capacity, which is the same
/// ([`CapGraph::capacity`]), so
///
/// ```text
/// λ ≤ min_v cap(v) / max( Σ_{j: src_j = v} d_j , Σ_{j: dst_j = v} d_j )
/// ```
///
/// Returns `f64::INFINITY` when no commodity constrains any node.
pub fn node_cut_upper_bound(g: &CapGraph, commodities: &[Commodity]) -> f64 {
    let n = g.node_count();
    let mut out_dem = vec![0.0f64; n];
    let mut in_dem = vec![0.0f64; n];
    for c in commodities {
        out_dem[c.src] += c.demand;
        in_dem[c.dst] += c.demand;
    }
    let mut bound = f64::INFINITY;
    for v in 0..n {
        if out_dem[v] > 0.0 {
            bound = bound.min(g.capacity(v) / out_dem[v]);
        }
        if in_dem[v] > 0.0 {
            bound = bound.min(g.capacity(v) / in_dem[v]);
        }
    }
    bound
}

/// Newton steps (max-flow runs) [`star_exact`] takes before it gives an
/// instance back.
const STAR_STEPS: usize = 32;

/// The relative distance within which [`star_exact`]'s λ and its cut must
/// agree before it answers.
const STAR_TOLERANCE: f64 = 1e-9;

/// The optimum of a star instance, proven by a flow and a cut
/// ([`star_exact`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StarSolution {
    /// The concurrent rate the computed flow delivers: the minimum over the
    /// leaves of delivered flow / demand.
    pub lambda: f64,
    /// The value of the cut that bounds the optimum; `lambda` lies within
    /// 1e-9 of it, relative.
    pub upper_bound: f64,
    /// The node every commodity starts or ends at.
    pub hub: usize,
    /// Leaves with positive demand.
    pub sinks: usize,
    /// Max-flow runs (Newton steps) the proof took.
    pub steps: usize,
}

/// Exact λ of a *star*: every commodity starts or ends at one hub `h`.
///
/// Applies when, where both directions appear, each leaf's demand out of
/// the hub equals its demand into it, bit for bit. Every arc has a twin of
/// the same capacity, so the joint optimum then equals the broadcast
/// optimum: an optimal broadcast flow with its 2-cycles cancelled,
/// reversed, is a feasible incast flow beside it. (Incast alone is
/// broadcast on the reversed graph, which is the same graph.) The
/// broadcast optimum is
///
/// ```text
/// λ* = min over cuts S ∋ h of cap(δ⁺(S)) / (demand of the leaves outside S)
/// ```
///
/// and Newton (Dinkelbach) iteration over a Dinic max-flow into a
/// super-sink finds it, starting from the [`node_cut_upper_bound`]: each
/// step routes λ·dₜ from the hub to every leaf t; a flow that delivers
/// it proves λ, and a smaller min cut becomes the next λ.
///
/// Returns `None` — and the caller solves the instance some other way —
/// for anything else: no commodities, an invalid commodity (`src == dst`,
/// a non-positive or non-finite demand), two hubs, unmirrored demands, a
/// non-finite bound, or no agreement between λ and the cut within 32
/// Newton steps. A leaf the hub cannot reach gives λ = UB = 0.
pub fn star_exact(g: &CapGraph, commodities: &[Commodity]) -> Option<StarSolution> {
    let n = g.node_count();
    let (hub, demand) = star_demands(n, commodities)?;
    let sinks: Vec<usize> = (0..n).filter(|&t| demand[t] > 0.0).collect();
    let mut span = ft_obs::span!("mcf.star", hub = hub, sinks = sinks.len());
    let mut ub = node_cut_upper_bound(g, commodities);
    let (mut steps, mut solved) = (0, None);
    while steps < STAR_STEPS {
        steps += 1;
        let Some((rate, cut)) = star_probe(g, hub, &demand, &sinks, ub) else {
            break;
        };
        if rate >= (1.0 - STAR_TOLERANCE) * ub {
            solved = Some(StarSolution {
                // a rounded delivered/dₜ may pass the bound by an ulp
                lambda: rate.min(ub),
                upper_bound: ub,
                hub,
                sinks: sinks.len(),
                steps,
            });
            break;
        }
        if cut.is_nan() || cut >= ub {
            break; // no progress: rounding, not the optimum
        }
        ub = cut;
    }
    if let Some(s) = span.as_mut() {
        s.field("steps", steps);
        s.field("exact", solved.is_some());
        if let Some(sol) = &solved {
            s.field("lambda", sol.lambda);
            s.field("upper_bound", sol.upper_bound);
        }
    }
    if solved.is_some() {
        crate::fptas::obs().star_exact.incr();
    }
    solved
}

/// The hub of a star instance and the broadcast demand of every node (0
/// off the leaves), or `None` when the instance is not a star, a
/// commodity is invalid, or both directions appear with unequal demands.
fn star_demands(n: usize, commodities: &[Commodity]) -> Option<(usize, Vec<f64>)> {
    let valid = |c: &Commodity| {
        c.src != c.dst && c.src < n && c.dst < n && c.demand > 0.0 && c.demand.is_finite()
    };
    if !commodities.iter().all(valid) {
        return None;
    }
    let first = commodities.first()?;
    let touches = |h: usize| commodities.iter().all(|c| c.src == h || c.dst == h);
    let hub = [first.src, first.dst].into_iter().find(|&h| touches(h))?;
    let (mut out, mut inn) = (vec![0.0f64; n], vec![0.0f64; n]);
    for c in commodities {
        if c.src == hub {
            out[c.dst] += c.demand;
        } else {
            inn[c.src] += c.demand;
        }
    }
    let has = |d: &[f64]| d.iter().any(|&x| x > 0.0);
    match (has(&out), has(&inn)) {
        (true, true) => (out.iter().zip(&inn))
            .all(|(a, b)| a.to_bits() == b.to_bits())
            .then_some((hub, out)),
        (true, false) => Some((hub, out)),
        _ => Some((hub, inn)),
    }
}

/// One Newton step of [`star_exact`]: a max-flow from the hub that asks
/// `lambda·demand[t]` of every leaf t through a super-sink. Returns the
/// rate the flow delivers (the minimum of delivered / demand) and the
/// ratio of its min cut, cap(δ⁺(S)) / demand outside S — ∞ or NaN when
/// the cut leaves no leaf outside. `None` when a leaf's capacity would
/// not be finite.
fn star_probe(
    g: &CapGraph,
    hub: usize,
    demand: &[f64],
    sinks: &[usize],
    lambda: f64,
) -> Option<(f64, f64)> {
    let super_sink = g.node_count();
    let mut net = FlowNetwork::new(super_sink + 1);
    for a in g.arcs() {
        net.add_edge(a.from, a.to, g.cap());
    }
    let mut exits = Vec::with_capacity(sinks.len());
    for &t in sinks {
        let cap = lambda * demand[t];
        if !(cap.is_finite() && cap >= 0.0) {
            return None;
        }
        exits.push(net.add_edge(t, super_sink, cap));
    }
    net.max_flow(hub, super_sink);
    let rate = (sinks.iter().zip(&exits))
        .map(|(&t, &e)| net.flow(e) / demand[t])
        .fold(f64::INFINITY, f64::min);
    let side = net.min_cut_source_side(hub);
    let crossing: f64 = (g.arcs().iter())
        .filter(|a| side[a.from] && !side[a.to])
        .map(|_| g.cap())
        .sum();
    let outside: f64 = (sinks.iter())
        .filter(|&&t| !side[t])
        .map(|&t| demand[t])
        .sum();
    Some((rate, crossing / outside))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::Graph;

    fn unit(n: usize, edges: &[(u32, u32)]) -> CapGraph {
        CapGraph::from_graph(&Graph::from_edges(n, edges), 1.0)
    }

    #[test]
    fn node_cut_hotspot() {
        // star center 0 with 3 leaves; broadcasts to all leaves
        let g = unit(4, &[(0, 1), (0, 2), (0, 3)]);
        let cs: Vec<Commodity> = (1..4)
            .map(|t| Commodity {
                src: 0,
                dst: t,
                demand: 1.0,
            })
            .collect();
        // out_cap(0) = 3, total demand 3 → λ ≤ 1
        assert!((node_cut_upper_bound(&g, &cs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn node_cut_incast() {
        let g = unit(4, &[(0, 1), (0, 2), (0, 3)]);
        let cs: Vec<Commodity> = (1..4)
            .map(|s| Commodity {
                src: s,
                dst: 0,
                demand: 2.0,
            })
            .collect();
        // in_cap(0) = 3, total demand 6 → λ ≤ 0.5
        assert!((node_cut_upper_bound(&g, &cs) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn node_cut_no_commodities_infinite() {
        let g = unit(2, &[(0, 1)]);
        assert!(node_cut_upper_bound(&g, &[]).is_infinite());
    }

    fn c(src: usize, dst: usize, demand: f64) -> Commodity {
        Commodity { src, dst, demand }
    }

    #[test]
    fn single_commodity_diamond() {
        // a one-leaf star is one commodity: λ = maxflow / demand
        let g = unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let star = star_exact(&g, &[c(0, 3, 1.0)]).unwrap();
        assert!((star.lambda - 2.0).abs() < 1e-9);
        assert_eq!((star.hub, star.sinks, star.steps), (0, 1, 1));
        let star = star_exact(&g, &[c(0, 3, 4.0)]).unwrap();
        assert!((star.lambda - 0.5).abs() < 1e-9);
        // and an incast leaf is a broadcast on the reversed graph
        let star = star_exact(&g, &[c(3, 0, 4.0)]).unwrap();
        assert!((star.lambda - 0.5).abs() < 1e-9);
    }

    /// Hub 0 reaches leaves 1 and 2 directly, and leaves 5, 6 and 7 only
    /// over the bridge 3–4, in both directions with `demand` per leaf.
    fn bridge(demand: [f64; 5]) -> (CapGraph, Vec<Commodity>) {
        let g = unit(8, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (4, 7)]);
        let leaves = [1, 2, 5, 6, 7].into_iter().zip(demand);
        let cs = leaves.flat_map(|(t, d)| [c(0, t, d), c(t, 0, d)]).collect();
        (g, cs)
    }

    #[test]
    fn maxflow_bound_tighter_than_node_cut() {
        // the node cut at the hub reads 3 / 5; the bridge carries 1 to
        // the three leaves behind it, so λ* = 1/3 and Newton must step
        // off the node cut to find it
        let (g, cs) = bridge([1.0; 5]);
        let nc = node_cut_upper_bound(&g, &cs);
        assert!((nc - 0.6).abs() < 1e-12);
        let star = star_exact(&g, &cs).unwrap();
        assert!(star.steps >= 2, "{star:?}");
        assert!((star.lambda - 1.0 / 3.0).abs() < 1e-9, "{star:?}");
        assert!((star.upper_bound - 1.0 / 3.0).abs() < 1e-9, "{star:?}");
        assert!(star.lambda <= star.upper_bound && star.upper_bound < nc);
        assert_eq!((star.hub, star.sinks), (0, 5));
    }

    #[test]
    fn star_matches_exact_simplex_on_bridge() {
        for demand in [
            [1.0; 5],
            [1.0, 2.0, 1.5, 0.5, 1.0],
            [3.0, 0.25, 0.5, 2.0, 7.0],
        ] {
            let (g, cs) = bridge(demand);
            let exact = crate::max_concurrent_flow_exact(&g, &cs).unwrap();
            let star = star_exact(&g, &cs).unwrap();
            assert!(
                (star.lambda - exact).abs() <= 1e-9 * exact,
                "{demand:?}: star {star:?} vs exact {exact}"
            );
            assert!((star.upper_bound - exact).abs() <= 1e-9 * exact);
            // one direction alone has the same optimum
            let out: Vec<Commodity> = cs.iter().copied().filter(|c| c.src == 0).collect();
            assert_eq!(star_exact(&g, &out), Some(star));
        }
    }

    #[test]
    fn star_refuses_what_it_cannot_prove() {
        let (g, cs) = bridge([1.0; 5]);
        // two hubs
        assert_eq!(star_exact(&g, &[c(0, 1, 1.0), c(2, 3, 1.0)]), None);
        assert_eq!(
            star_exact(&g, &[c(0, 1, 1.0), c(0, 2, 1.0), c(1, 2, 1.0)]),
            None
        );
        // unmirrored demands: one leaf asks more in than out
        let mut unmirrored = cs.clone();
        unmirrored[1].demand = 1.0 + f64::EPSILON;
        assert_eq!(star_exact(&g, &unmirrored), None);
        // a leaf with one direction only, beside mirrored leaves
        assert_eq!(star_exact(&g, &cs[1..]), None);
        // invalid commodities and no commodities
        for bad in [
            c(1, 1, 1.0),
            c(0, 1, 0.0),
            c(0, 1, -1.0),
            c(0, 1, f64::NAN),
            c(0, 1, f64::INFINITY),
            c(0, 8, 1.0),
        ] {
            assert_eq!(star_exact(&g, &[c(0, 2, 1.0), bad]), None, "{bad:?}");
        }
        assert_eq!(star_exact(&g, &[]), None);
    }

    #[test]
    fn star_disconnected_leaf_is_zero() {
        // leaf 2 is isolated, so the node cut is already 0
        let g = unit(3, &[(0, 1)]);
        let star = star_exact(&g, &[c(0, 1, 1.0), c(0, 2, 1.0)]).unwrap();
        assert_eq!((star.lambda, star.upper_bound), (0.0, 0.0));
        // leaves 3 and 4 sit in a component of their own: the node cut is
        // positive, and Newton steps down to the empty cut
        let g = unit(5, &[(0, 1), (0, 2), (3, 4)]);
        let cs = [c(0, 1, 1.0), c(0, 3, 1.0), c(4, 0, 1.0)];
        assert!(node_cut_upper_bound(&g, &cs) > 0.0);
        assert_eq!(star_exact(&g, &cs), None, "not mirrored");
        let cs = [c(0, 1, 1.0), c(0, 3, 1.0), c(0, 4, 1.0)];
        let star = star_exact(&g, &cs).unwrap();
        assert_eq!((star.lambda, star.upper_bound), (0.0, 0.0));
        assert!(star.steps >= 2, "{star:?}");
    }
}
