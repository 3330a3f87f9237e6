//! Cheap upper bounds on the concurrent-flow rate λ.
//!
//! Used for three purposes:
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

use crate::digraph::CapGraph;
use crate::Commodity;
use ft_graph::FlowNetwork;

/// The node-cut upper bound: for every node `v`, all flow sourced at `v`
/// must leave through `v`'s outgoing capacity and all flow destined to `v`
/// must enter through its incoming capacity, so
///
/// ```text
/// λ ≤ min_v min( out_cap(v) / Σ_{j: src_j = v} d_j ,
///                in_cap(v)  / Σ_{j: dst_j = v} d_j )
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
            bound = bound.min(g.out_capacity(v) / out_dem[v]);
        }
        if in_dem[v] > 0.0 {
            bound = bound.min(g.in_capacity(v) / in_dem[v]);
        }
    }
    bound
}

/// Exact λ for a *single* commodity: `maxflow(src, dst) / demand`, via
/// Dinic. An independent oracle for tests and a tight bound when one
/// commodity dominates.
pub fn single_commodity_exact(g: &CapGraph, c: &Commodity) -> f64 {
    let mut fn_ = FlowNetwork::new(g.node_count());
    for a in g.arcs() {
        fn_.add_edge(a.from, a.to, a.cap);
    }
    fn_.max_flow(c.src, c.dst) / c.demand
}

/// Upper bound via per-commodity max-flow: λ ≤ min_j maxflow(s_j, t_j)/d_j.
/// Tighter than the node cut on sparse cuts, at the cost of one Dinic run
/// per commodity — use on small instances only.
pub fn per_commodity_maxflow_bound(g: &CapGraph, commodities: &[Commodity]) -> f64 {
    commodities
        .iter()
        .map(|c| single_commodity_exact(g, c))
        .fold(f64::INFINITY, f64::min)
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

    #[test]
    fn single_commodity_diamond() {
        let g = unit(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let c = Commodity {
            src: 0,
            dst: 3,
            demand: 1.0,
        };
        assert!((single_commodity_exact(&g, &c) - 2.0).abs() < 1e-9);
        let c2 = Commodity {
            src: 0,
            dst: 3,
            demand: 4.0,
        };
        assert!((single_commodity_exact(&g, &c2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn maxflow_bound_tighter_than_node_cut() {
        // path 0-1-2: commodity 0→2 demand 1.
        // node cut at 0: out_cap 1 → bound 1; maxflow bound also 1.
        let g = unit(3, &[(0, 1), (1, 2)]);
        let cs = [Commodity {
            src: 0,
            dst: 2,
            demand: 1.0,
        }];
        let nc = node_cut_upper_bound(&g, &cs);
        let mf = per_commodity_maxflow_bound(&g, &cs);
        assert!(mf <= nc + 1e-12);
        assert!((mf - 1.0).abs() < 1e-9);
    }
}
